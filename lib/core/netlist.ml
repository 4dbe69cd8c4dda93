type conn = { c_net : int; c_invert : bool; c_directive : Directive.t }

type inst = {
  i_id : int;
  i_name : string;
  i_prim : Primitive.t;
  i_inputs : conn array;
  i_output : int option;
}

type net = {
  n_id : int;
  n_name : string;
  n_width : int;
  mutable n_assertion : Assertion.t option;
  mutable n_wire_delay : Delay.t option;
  mutable n_driver : int option;
  mutable n_fanout : int array;
  mutable n_fanout_n : int;
}

type t = {
  tb : Timebase.t;
  asserts : Assertion.defaults;
  default_wire : Delay.t;
  mutable nets : net array;
  mutable n_nets : int;
  mutable insts : inst array;
  mutable n_insts : int;
  by_name : (string, int) Hashtbl.t;
  mutable corners : Corner.table;
      (* the delay corners a verification of this netlist evaluates;
         corner 0 is the reference (doc/CORNERS.md) *)
  prim_cache : (Primitive.t, Primitive.t) Hashtbl.t;
      (* structural interning of primitives: large designs instantiate a
         handful of distinct (kind, delay) characterizations millions of
         times, so [add] stores one canonical block per distinct value *)
}

let create ?(defaults = Assertion.s1_defaults) ?(default_wire_delay = Delay.of_ns 0.0 2.0) tb =
  {
    tb;
    asserts = defaults;
    default_wire = default_wire_delay;
    nets = [||];
    n_nets = 0;
    insts = [||];
    n_insts = 0;
    by_name = Hashtbl.create 64;
    corners = Corner.default;
    prim_cache = Hashtbl.create 64;
  }

let timebase t = t.tb
let defaults t = t.asserts
let default_wire_delay t = t.default_wire

let wire_delay t (n : net) =
  match n.n_wire_delay with Some d -> d | None -> t.default_wire

let grow arr n dummy = if n < Array.length arr then arr else
  Array.append arr (Array.make (max 16 (Array.length arr)) dummy)

(* ---- packed fanout ---------------------------------------------------- *)

(* Fanout lives in a per-net packed int buffer with amortized-doubling
   appends; only the first [n_fanout_n] entries are valid.  The former
   representation was a head-pushed [int list] (most-recent-first), so
   [iter_fanout]/[fanout] walk the buffer backwards to preserve the
   historical iteration order exactly — evaluation queue order, and with
   it report order, depends on it. *)

let fanout_count n = n.n_fanout_n

let iter_fanout n f =
  for i = n.n_fanout_n - 1 downto 0 do
    f n.n_fanout.(i)
  done

let fold_fanout n acc f =
  let r = ref acc in
  for i = n.n_fanout_n - 1 downto 0 do
    r := f !r n.n_fanout.(i)
  done;
  !r

let fanout n = List.init n.n_fanout_n (fun i -> n.n_fanout.(n.n_fanout_n - 1 - i))

let fanout_array n = Array.init n.n_fanout_n (fun i -> n.n_fanout.(n.n_fanout_n - 1 - i))

let push_fanout n id =
  (* Instance ids only grow and one instance's connections are recorded
     together, so any duplicate of [id] (one instance reading a net on
     several inputs) was itself appended during the same [add] call and
     therefore sits in the tail slot: the O(1) check is a complete dedup,
     not a heuristic. *)
  if n.n_fanout_n > 0 && n.n_fanout.(n.n_fanout_n - 1) = id then ()
  else begin
    if n.n_fanout_n >= Array.length n.n_fanout then begin
      let cap = max 2 (2 * Array.length n.n_fanout) in
      let fresh = Array.make cap (-1) in
      Array.blit n.n_fanout 0 fresh 0 n.n_fanout_n;
      n.n_fanout <- fresh
    end;
    n.n_fanout.(n.n_fanout_n) <- id;
    n.n_fanout_n <- n.n_fanout_n + 1
  end

let dummy_net =
  {
    n_id = -1;
    n_name = "";
    n_width = 1;
    n_assertion = None;
    n_wire_delay = None;
    n_driver = None;
    n_fanout = [||];
    n_fanout_n = 0;
  }

let add_net t ~name ~width ~assertion =
  t.nets <- grow t.nets t.n_nets dummy_net;
  let id = t.n_nets in
  let n =
    {
      n_id = id;
      n_name = name;
      n_width = width;
      n_assertion = assertion;
      n_wire_delay = None;
      n_driver = None;
      n_fanout = [||];
      n_fanout_n = 0;
    }
  in
  t.nets.(id) <- n;
  t.n_nets <- t.n_nets + 1;
  Hashtbl.replace t.by_name name id;
  id

(* An assertion's times are bounded once, when a net takes it on. *)
let check_assertion t name a =
  match Assertion.check t.tb a with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "signal %s: %s" name m)

let signal_parsed t (sn : Signal_name.t) =
  let key = Signal_name.key sn in
  match Hashtbl.find_opt t.by_name key with
  | Some id ->
    let n = t.nets.(id) in
    (match n.n_assertion, sn.assertion with
    | _, None -> ()
    | None, Some a ->
      check_assertion t sn.base a;
      n.n_assertion <- Some a
    | Some a, Some b ->
      if not (Assertion.equal a b) then
        invalid_arg
          (Printf.sprintf "Netlist.signal: inconsistent assertions on %s: .%s vs .%s" key
             (Assertion.to_string a) (Assertion.to_string b)));
    id
  | None ->
    (match sn.assertion with Some a -> check_assertion t sn.base a | None -> ());
    add_net t ~name:key ~width:(Signal_name.width sn) ~assertion:sn.assertion

let signal t name =
  let sn = Signal_name.parse_exn name in
  signal_parsed t sn

let conn ?(invert = false) ?(directive = []) net_id =
  { c_net = net_id; c_invert = invert; c_directive = directive }

let signal_conn t ?(directive = []) name =
  let sn = Signal_name.parse_exn name in
  let id = signal_parsed t sn in
  conn ~invert:sn.complemented ~directive id

let set_wire_delay t id d = t.nets.(id).n_wire_delay <- Some d

let set_width t id width =
  let n = t.nets.(id) in
  t.nets.(id) <- { n with n_width = width }

let dummy_inst =
  { i_id = -1; i_name = ""; i_prim = Primitive.Buf { invert = false; delay = Delay.zero };
    i_inputs = [||]; i_output = None }

let intern_prim t prim =
  match Hashtbl.find_opt t.prim_cache prim with
  | Some p -> p
  | None ->
    Hashtbl.add t.prim_cache prim prim;
    prim

let add t ?name prim ~inputs ~output =
  let prim = intern_prim t prim in
  let expected = Primitive.n_inputs prim in
  if List.length inputs <> expected then
    invalid_arg
      (Printf.sprintf "Netlist.add: %s expects %d inputs, got %d" (Primitive.mnemonic prim)
         expected (List.length inputs));
  (match output, Primitive.has_output prim with
  | Some _, false -> invalid_arg "Netlist.add: checker primitives have no output"
  | None, true -> invalid_arg "Netlist.add: primitive requires an output net"
  | Some _, true | None, false -> ());
  t.insts <- grow t.insts t.n_insts dummy_inst;
  let id = t.n_insts in
  let name = match name with Some n -> n | None -> Printf.sprintf "%s#%d" (Primitive.mnemonic prim) id in
  let i =
    { i_id = id; i_name = name; i_prim = prim; i_inputs = Array.of_list inputs; i_output = output }
  in
  (match output with
  | None -> ()
  | Some o ->
    let n = t.nets.(o) in
    (match n.n_driver with
    | Some other ->
      invalid_arg
        (Printf.sprintf "Netlist.add: net %s already driven by %s" n.n_name
           t.insts.(other).i_name)
    | None -> n.n_driver <- Some id));
  List.iter (fun c -> push_fanout t.nets.(c.c_net) id) inputs;
  t.insts.(id) <- i;
  t.n_insts <- t.n_insts + 1;
  i

let trim t =
  if Array.length t.nets > t.n_nets then t.nets <- Array.sub t.nets 0 t.n_nets;
  if Array.length t.insts > t.n_insts then t.insts <- Array.sub t.insts 0 t.n_insts;
  for i = 0 to t.n_nets - 1 do
    let n = t.nets.(i) in
    if Array.length n.n_fanout > n.n_fanout_n then
      n.n_fanout <- Array.sub n.n_fanout 0 n.n_fanout_n
  done

let net t id = t.nets.(id)
let inst t id = t.insts.(id)
let find t name = Hashtbl.find_opt t.by_name name

let find_inst t name =
  let rec scan i =
    if i >= t.n_insts then None
    else if String.equal t.insts.(i).i_name name then Some i
    else scan (i + 1)
  in
  scan 0

(* ---- post-construction edits (lib/incr, doc/SERVICE.md) ------------------ *)

let set_wire_delay_opt t id d = t.nets.(id).n_wire_delay <- d
let set_assertion t id a =
  (match a with Some a -> check_assertion t t.nets.(id).n_name a | None -> ());
  t.nets.(id).n_assertion <- a

let corners t = t.corners

let set_corners t tbl =
  Corner.validate_table tbl;
  t.corners <- tbl

let replace_prim t id prim =
  let i = t.insts.(id) in
  if Primitive.n_inputs prim <> Array.length i.i_inputs then
    invalid_arg
      (Printf.sprintf "Netlist.replace_prim: %s takes %d inputs, %s has %d" i.i_name
         (Primitive.n_inputs prim) (Primitive.mnemonic prim) (Array.length i.i_inputs));
  if Primitive.has_output prim <> (i.i_output <> None) then
    invalid_arg
      (Printf.sprintf "Netlist.replace_prim: %s and %s disagree on having an output"
         i.i_name (Primitive.mnemonic prim));
  t.insts.(id) <- { i with i_prim = prim }

let set_element_delay t id d =
  let i = t.insts.(id) in
  match Primitive.with_element_delay i.i_prim d with
  | Some prim -> t.insts.(id) <- { i with i_prim = prim }
  | None ->
    invalid_arg
      (Printf.sprintf "Netlist.set_element_delay: %s has no element delay" i.i_name)

let set_input_directive t ~inst:id ~input d =
  let i = t.insts.(id) in
  if input < 0 || input >= Array.length i.i_inputs then
    invalid_arg
      (Printf.sprintf "Netlist.set_input_directive: %s has no input %d" i.i_name input);
  let c = i.i_inputs.(input) in
  i.i_inputs.(input) <- { c with c_directive = d }
let nets t = Array.sub t.nets 0 t.n_nets
let n_nets t = t.n_nets
let n_insts t = t.n_insts

let iter_nets t f =
  for i = 0 to t.n_nets - 1 do
    f t.nets.(i)
  done

let iter_insts t f =
  for i = 0 to t.n_insts - 1 do
    f t.insts.(i)
  done

let undriven_unasserted t =
  let acc = ref [] in
  iter_nets t (fun n ->
      if n.n_driver = None && n.n_assertion = None then acc := n :: !acc);
  List.rev !acc

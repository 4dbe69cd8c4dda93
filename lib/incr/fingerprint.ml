open Scald_core

(* ---- canonical serialization --------------------------------------------- *)

(* A netlist's identity for the session store is the canonical dump of
   its structure and parameters, hashed.  Two digests are computed from
   the same walk:

   - [digest]: everything — structure plus every editable parameter
     (wire delays, assertions, primitive parameters, connection
     directives).  Equal digests mean a cold run would produce the very
     same report: full session reuse.
   - [skeleton]: structure only — names, widths, connectivity, primitive
     shape.  Equal skeletons mean the designs differ only in parameters
     every one of which is expressible as an {!Edit.t}, so an existing
     session can be adopted by replaying the parameter diff. *)

let add_int b i =
  Buffer.add_char b 'i';
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_str b s =
  Buffer.add_char b 's';
  add_int b (String.length s);
  Buffer.add_string b s

let add_bool b v = Buffer.add_char b (if v then 'T' else 'F')

let add_opt f b = function
  | None -> Buffer.add_char b 'N'
  | Some v ->
    Buffer.add_char b 'S';
    f b v

let add_delay b (d : Delay.t) =
  add_int b d.dmin;
  add_int b d.dmax;
  add_opt
    (fun b ((rmin, rmax), (fmin, fmax)) ->
      add_int b rmin;
      add_int b rmax;
      add_int b fmin;
      add_int b fmax)
    b d.rise_fall

let add_assertion b a = add_str b (Assertion.to_string a)
let add_directive b d = add_str b (Directive.to_string d)

let gate_fn_tag = function
  | Primitive.And -> 0
  | Primitive.Or -> 1
  | Primitive.Xor -> 2
  | Primitive.Chg -> 3

(* [params = false] records only the shape of the primitive — the
   constructor and whatever decides its input count.  Note that [invert]
   and checker margins are parameters: a NAND differs from an AND only
   in a parameter, replayable with {!Netlist.replace_prim}. *)
let add_prim ~params b (p : Primitive.t) =
  match p with
  | Primitive.Gate g ->
    Buffer.add_char b 'G';
    add_int b (gate_fn_tag g.fn);
    add_int b g.n_inputs;
    if params then begin
      add_bool b g.invert;
      add_delay b g.delay
    end
  | Primitive.Buf bu ->
    Buffer.add_char b 'B';
    if params then begin
      add_bool b bu.invert;
      add_delay b bu.delay
    end
  | Primitive.Mux2 m ->
    Buffer.add_char b 'M';
    if params then begin
      add_delay b m.delay;
      add_delay b m.select_extra
    end
  | Primitive.Reg r ->
    Buffer.add_char b 'R';
    add_bool b r.has_set_reset;
    if params then add_delay b r.delay
  | Primitive.Latch l ->
    Buffer.add_char b 'L';
    add_bool b l.has_set_reset;
    if params then add_delay b l.delay
  | Primitive.Setup_hold_check c ->
    Buffer.add_char b 'H';
    if params then begin
      add_int b c.setup;
      add_int b c.hold
    end
  | Primitive.Setup_rise_hold_fall_check c ->
    Buffer.add_char b 'W';
    if params then begin
      add_int b c.setup;
      add_int b c.hold
    end
  | Primitive.Min_pulse_width c ->
    Buffer.add_char b 'P';
    if params then begin
      add_int b c.high;
      add_int b c.low
    end
  | Primitive.Const v ->
    Buffer.add_char b 'C';
    if params then Buffer.add_char b (Tvalue.to_char v)

(* The dump is, in order: a header, one chunk per net, the instance
   count, one chunk per instance and — in [digest] only — a trailer.
   The chunk writers below are the whole serialization; [content] keeps
   their outputs apart so that an edit re-serializes only its own. *)

let add_header b nl =
  let tb = Netlist.timebase nl in
  add_int b (Timebase.period tb);
  add_int b (Timebase.clock_unit tb);
  add_delay b (Netlist.default_wire_delay nl);
  add_int b (Netlist.n_nets nl)

let add_net ~params b (n : Netlist.net) =
  add_str b n.n_name;
  add_int b n.n_width;
  if params then begin
    add_opt add_assertion b n.n_assertion;
    add_opt add_delay b n.n_wire_delay
  end

let add_inst ~params b (i : Netlist.inst) =
  add_str b i.i_name;
  add_prim ~params b i.i_prim;
  add_int b (Array.length i.i_inputs);
  Array.iter
    (fun (c : Netlist.conn) ->
      add_int b c.c_net;
      add_bool b c.c_invert;
      if params then add_directive b c.c_directive)
    i.i_inputs;
  add_opt add_int b i.i_output

(* The corner table is a replayable parameter (Edit.Corners), so it
   belongs to [digest] but not to [skeleton]. *)
let add_trailer b nl = add_str b (Corner.table_to_string (Netlist.corners nl))

let chunk b f x =
  Buffer.clear b;
  f b x;
  Buffer.contents b

type content = {
  (* [| header; net 0 .. net n-1; instance count; inst 0 .. inst m-1;
     trailer |] *)
  c_chunks : string array;
  c_n_nets : int;
  c_skeleton : string;
  mutable c_digest : string option;
  (* the chunks are joined here to be hashed, so a digest allocates
     nothing the size of the design *)
  mutable c_scratch : Bytes.t;
}

let content nl =
  let n_nets = Netlist.n_nets nl and n_insts = Netlist.n_insts nl in
  let b = Buffer.create 256 and sk = Buffer.create 4096 in
  let chunks = Array.make (n_nets + n_insts + 3) "" in
  let head = chunk b add_header nl in
  chunks.(0) <- head;
  Buffer.add_string sk head;
  Netlist.iter_nets nl (fun n ->
      chunks.(1 + n.n_id) <- chunk b (add_net ~params:true) n;
      add_net ~params:false sk n);
  let mid = chunk b add_int n_insts in
  chunks.(n_nets + 1) <- mid;
  Buffer.add_string sk mid;
  Netlist.iter_insts nl (fun i ->
      chunks.(n_nets + 2 + i.i_id) <- chunk b (add_inst ~params:true) i;
      add_inst ~params:false sk i);
  chunks.(n_nets + n_insts + 2) <- chunk b add_trailer nl;
  {
    c_chunks = chunks;
    c_n_nets = n_nets;
    c_skeleton = Digest.to_hex (Digest.string (Buffer.contents sk));
    c_digest = None;
    c_scratch = Bytes.empty;
  }

let content_digest c =
  match c.c_digest with
  | Some d -> d
  | None ->
    let len = Array.fold_left (fun a s -> a + String.length s) 0 c.c_chunks in
    if Bytes.length c.c_scratch < len then c.c_scratch <- Bytes.create (len + (len / 8));
    let pos = ref 0 in
    Array.iter
      (fun s ->
        Bytes.blit_string s 0 c.c_scratch !pos (String.length s);
        pos := !pos + String.length s)
      c.c_chunks;
    let d = Digest.to_hex (Digest.subbytes c.c_scratch 0 len) in
    c.c_digest <- Some d;
    d

let content_skeleton c = c.c_skeleton

(* Re-serialize the given nets and instances and the trailer; the
   digest is dropped only when some chunk actually changed. *)
let refresh_content c nl ~nets ~insts =
  let b = Buffer.create 256 in
  let put k s =
    if not (String.equal c.c_chunks.(k) s) then begin
      c.c_chunks.(k) <- s;
      c.c_digest <- None
    end
  in
  List.iter (fun id -> put (1 + id) (chunk b (add_net ~params:true) (Netlist.net nl id))) nets;
  List.iter
    (fun id -> put (c.c_n_nets + 2 + id) (chunk b (add_inst ~params:true) (Netlist.inst nl id)))
    insts;
  put (Array.length c.c_chunks - 1) (chunk b add_trailer nl)

let digest nl = content_digest (content nl)
let skeleton nl = content_skeleton (content nl)

(* ---- per-net cone fingerprints ------------------------------------------- *)

(* FNV-1a over 64 bits: cheap, order-sensitive, good enough dispersion
   for "did this cone change" reporting (collisions only ever cost a
   missed reuse opportunity in diagnostics, never a wrong verdict — the
   dirty-cone computation itself is structural, not hash-based).  The
   mixers are loops over a local accumulator, which the compiler keeps
   unboxed: only the result is allocated. *)

let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let[@inline] mix_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let mix_int h i =
  let h = ref h and v = ref i in
  for _ = 1 to 8 do
    h := mix_byte !h !v;
    v := !v asr 8
  done;
  !h

let mix_i64 h (x : int64) =
  let h = ref h and v = ref x in
  for _ = 1 to 8 do
    h := mix_byte !h (Int64.to_int (Int64.logand !v 0xffL));
    v := Int64.shift_right_logical !v 8
  done;
  !h

let mix_str h s =
  let h = ref (mix_int h (String.length s)) in
  for k = 0 to String.length s - 1 do
    h := mix_byte !h (Char.code (String.unsafe_get s k))
  done;
  !h

let local_net_hash (n : Netlist.net) =
  let h = mix_str fnv_basis n.n_name in
  let h = mix_int h n.n_width in
  let h =
    match n.n_assertion with
    | None -> mix_int h 0
    | Some a -> mix_str (mix_int h 1) (Assertion.to_string a)
  in
  match n.n_wire_delay with
  | None -> mix_int h 0
  | Some d -> (
    let h = mix_int (mix_int (mix_int h 1) d.dmin) d.dmax in
    match d.rise_fall with
    | None -> mix_int h 0
    | Some ((rmin, rmax), (fmin, fmax)) ->
      mix_int (mix_int (mix_int (mix_int (mix_int h 1) rmin) rmax) fmin) fmax)

let local_inst_hash (i : Netlist.inst) =
  let b = Buffer.create 64 in
  add_str b i.i_name;
  add_prim ~params:true b i.i_prim;
  Array.iter
    (fun (c : Netlist.conn) ->
      add_bool b c.c_invert;
      add_directive b c.c_directive)
    i.i_inputs;
  mix_str fnv_basis (Buffer.contents b)

(* What a cone fingerprint is computed from: the condensation (whose
   component members it walks) and every net's and instance's local
   hash. *)
type hashes = {
  h_sched : Sched.t;
  h_net : int64 array;
  h_inst : int64 array;
}

let hashes ?sched nl =
  let s = match sched with Some s -> s | None -> Sched.compute nl in
  {
    h_sched = s;
    h_net = Array.init (Netlist.n_nets nl) (fun id -> local_net_hash (Netlist.net nl id));
    h_inst =
      Array.init (Netlist.n_insts nl) (fun id -> local_inst_hash (Netlist.inst nl id));
  }

(* Hash one component's output nets, given final fingerprints for every
   input from outside it; [set net fp] records each result. *)
let finish_component nl h fp set c =
  let finish_inst ~intra ~seed inst_id =
    let i = Netlist.inst nl inst_id in
    match i.i_output with
    | None -> ()
    | Some o ->
      let acc = ref h.h_inst.(inst_id) in
      for k = 0 to Array.length i.i_inputs - 1 do
        let net = i.i_inputs.(k).c_net in
        acc := mix_i64 !acc (if intra net then mix_i64 seed h.h_net.(net) else fp.(net))
      done;
      set o (mix_i64 !acc h.h_net.(o))
  in
  match Sched.members h.h_sched c with
  | [] -> ()
  | [ inst_id ] when Sched.cyclic_slot h.h_sched inst_id < 0 ->
    finish_inst ~intra:(fun _ -> false) ~seed:0L inst_id
  | insts ->
    (* Feedback component: break the recursion with a two-pass scheme.
       First a component seed from the sorted member-local hashes, then
       every member's cone hash treats intra-component inputs as
       "the component" rather than recursing. *)
    let intra = Hashtbl.create 8 in
    List.iter
      (fun id ->
        match (Netlist.inst nl id).i_output with
        | Some o -> Hashtbl.replace intra o ()
        | None -> ())
      insts;
    let seed = List.fold_left (fun acc id -> mix_i64 acc h.h_inst.(id)) fnv_basis insts in
    List.iter (finish_inst ~intra:(Hashtbl.mem intra) ~seed) insts

(* SCC ids are assigned in reverse topological order, so descending ids
   visit producers before consumers. *)
let all_cones nl h =
  let fp = Array.make (max 1 (Netlist.n_nets nl)) 0L in
  (* source fingerprints: undriven nets depend only on themselves *)
  Netlist.iter_nets nl (fun n -> if n.n_driver = None then fp.(n.n_id) <- h.h_net.(n.n_id));
  let set o v = fp.(o) <- v in
  for c = Sched.n_sccs h.h_sched - 1 downto 0 do
    finish_component nl h fp set c
  done;
  fp

let cones ?sched nl = all_cones nl (hashes ?sched nl)

let diff_count a b =
  let n = min (Array.length a) (Array.length b) in
  let d = ref (abs (Array.length a - Array.length b)) in
  for i = 0 to n - 1 do
    if not (Int64.equal a.(i) b.(i)) then incr d
  done;
  !d

(* ---- the maintained index ------------------------------------------------ *)

type index = {
  ix_content : content;
  ix_hashes : hashes;
  ix_fp : int64 array;
  (* visit marks of the refresh closure, valid when equal to [ix_stamp] *)
  ix_net_mark : int array;
  ix_comp_mark : int array;
  mutable ix_stamp : int;
}

let index ?content:c ~sched nl =
  let c = match c with Some c -> c | None -> content nl in
  let h = hashes ~sched nl in
  {
    ix_content = c;
    ix_hashes = h;
    ix_fp = all_cones nl h;
    ix_net_mark = Array.make (max 1 (Netlist.n_nets nl)) 0;
    ix_comp_mark = Array.make (max 1 (Sched.n_sccs sched)) 0;
    ix_stamp = 0;
  }

let index_content ix = ix.ix_content
let index_cones ix = Array.copy ix.ix_fp

(* A fingerprint is a function of local hashes and structure only, so
   the fingerprints that can move are those in the forward closure of
   the nets and instances whose local hash moved.  That closure is
   forward-closed, hence component-closed: a component is either wholly
   inside or wholly outside, and its inputs from outside it are final
   when it is re-hashed in descending order. *)
let refresh ix nl ~nets ~insts =
  refresh_content ix.ix_content nl ~nets ~insts;
  let h = ix.ix_hashes and fp = ix.ix_fp in
  ix.ix_stamp <- ix.ix_stamp + 1;
  let stamp = ix.ix_stamp in
  let closure = ref [] and q = Queue.create () in
  let seed o =
    if ix.ix_net_mark.(o) <> stamp then begin
      ix.ix_net_mark.(o) <- stamp;
      closure := o :: !closure;
      Queue.add o q
    end
  in
  List.iter
    (fun id ->
      let v = local_net_hash (Netlist.net nl id) in
      if not (Int64.equal v h.h_net.(id)) then begin
        h.h_net.(id) <- v;
        seed id
      end)
    nets;
  List.iter
    (fun id ->
      let i = Netlist.inst nl id in
      let v = local_inst_hash i in
      if not (Int64.equal v h.h_inst.(id)) then begin
        h.h_inst.(id) <- v;
        match i.i_output with Some o -> seed o | None -> ()
      end)
    insts;
  let reach inst_id = match (Netlist.inst nl inst_id).i_output with Some o -> seed o | None -> () in
  while not (Queue.is_empty q) do
    Netlist.iter_fanout (Netlist.net nl (Queue.take q)) reach
  done;
  let changed = ref 0 in
  let set o v =
    if not (Int64.equal fp.(o) v) then begin
      fp.(o) <- v;
      incr changed
    end
  in
  let comps =
    List.fold_left
      (fun acc o ->
        match (Netlist.net nl o).n_driver with
        | None ->
          set o h.h_net.(o);
          acc
        | Some d ->
          let c = Sched.scc h.h_sched d in
          if ix.ix_comp_mark.(c) = stamp then acc
          else begin
            ix.ix_comp_mark.(c) <- stamp;
            c :: acc
          end)
      [] !closure
  in
  List.iter (finish_component nl h fp set) (List.sort (fun a b -> compare b a) comps);
  !changed

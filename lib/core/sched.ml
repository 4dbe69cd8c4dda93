type t = {
  s_level : int array;  (* per instance: level of its component *)
  s_scc : int array;  (* per instance: component id *)
  s_slot : int array;  (* per instance: dense cyclic-component slot, -1 if acyclic *)
  s_cyclic_size : int array;  (* per slot: member count *)
  s_cyclic_scc : int array;  (* per slot: component id *)
  s_members : int list array;  (* per component: instance ids, ascending *)
  s_n_levels : int;
  s_n_sccs : int;
  s_max_scc_size : int;
}

(* Successor lists of the instance graph: the fanout of each instance's
   output net.  Built once; the arrays are also what the DFS iterates. *)
let successors nl =
  let succs = Array.make (max 1 (Netlist.n_insts nl)) [||] in
  Netlist.iter_insts nl (fun i ->
      match i.Netlist.i_output with
      | None -> ()
      | Some o -> succs.(i.Netlist.i_id) <- Netlist.fanout_array (Netlist.net nl o));
  succs

let compute nl =
  let n = Netlist.n_insts nl in
  let succs = successors nl in
  (* Tarjan's algorithm, iterative: netgen pipelines are thousands of
     instances deep, far past the default OCaml stack for a recursive
     DFS. *)
  let index = Array.make (max 1 n) (-1) in
  let lowlink = Array.make (max 1 n) 0 in
  let on_stack = Array.make (max 1 n) false in
  let self_loop = Array.make (max 1 n) false in
  let scc_of = Array.make (max 1 n) 0 in
  let tarjan_stack = ref [] in
  let next_index = ref 0 in
  let n_sccs = ref 0 in
  let scc_sizes = ref [] in
  (* one frame per open DFS node: the node and its next successor index *)
  let frames = Stack.create () in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    tarjan_stack := v :: !tarjan_stack;
    on_stack.(v) <- true;
    Stack.push (v, ref 0) frames
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while not (Stack.is_empty frames) do
        let v, next = Stack.top frames in
        if !next < Array.length succs.(v) then begin
          let w = succs.(v).(!next) in
          incr next;
          if w = v then self_loop.(v) <- true;
          if index.(w) < 0 then visit w
          else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          ignore (Stack.pop frames);
          if lowlink.(v) = index.(v) then begin
            let id = !n_sccs in
            incr n_sccs;
            let size = ref 0 in
            let continue = ref true in
            while !continue do
              match !tarjan_stack with
              | [] -> assert false
              | w :: rest ->
                tarjan_stack := rest;
                on_stack.(w) <- false;
                scc_of.(w) <- id;
                incr size;
                if w = v then continue := false
            done;
            scc_sizes := !size :: !scc_sizes
          end;
          match Stack.top_opt frames with
          | Some (p, _) -> if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
          | None -> ()
        end
      done
    end
  done;
  let n_sccs = !n_sccs in
  let scc_size = Array.make (max 1 n_sccs) 0 in
  List.iteri (fun i s -> scc_size.(n_sccs - 1 - i) <- s) !scc_sizes;
  (* Condensation edges run from larger to smaller component id (a
     successor component always finishes first in Tarjan), so a single
     pass over components in decreasing id order is a topological sweep:
     level(succ) >= level(pred) + 1. *)
  let scc_level = Array.make (max 1 n_sccs) 0 in
  (* members per component, in one flat pass *)
  let members = Array.make (max 1 n_sccs) [] in
  for v = n - 1 downto 0 do
    members.(scc_of.(v)) <- v :: members.(scc_of.(v))
  done;
  for s = n_sccs - 1 downto 0 do
    List.iter
      (fun v ->
        Array.iter
          (fun w ->
            let sw = scc_of.(w) in
            if sw <> s && scc_level.(s) + 1 > scc_level.(sw) then
              scc_level.(sw) <- scc_level.(s) + 1)
          succs.(v))
      members.(s)
  done;
  let n_levels = if n = 0 then 0 else 1 + Array.fold_left max 0 scc_level in
  let max_scc_size = Array.fold_left max (if n = 0 then 0 else 1) scc_size in
  (* dense slots for the cyclic components only, so per-run budget state
     is proportional to the number of feedback regions, not components *)
  let cyclic s = scc_size.(s) > 1 || (match members.(s) with [ v ] -> self_loop.(v) | _ -> false) in
  let slot_of_scc = Array.make (max 1 n_sccs) (-1) in
  let n_cyclic = ref 0 in
  for s = 0 to n_sccs - 1 do
    if cyclic s then begin
      slot_of_scc.(s) <- !n_cyclic;
      incr n_cyclic
    end
  done;
  let s_cyclic_size = Array.make !n_cyclic 0 in
  let s_cyclic_scc = Array.make !n_cyclic 0 in
  for s = 0 to n_sccs - 1 do
    let slot = slot_of_scc.(s) in
    if slot >= 0 then begin
      s_cyclic_size.(slot) <- scc_size.(s);
      s_cyclic_scc.(slot) <- s
    end
  done;
  let s_level = Array.init (max 1 n) (fun v -> if v < n then scc_level.(scc_of.(v)) else 0) in
  let s_slot = Array.init (max 1 n) (fun v -> if v < n then slot_of_scc.(scc_of.(v)) else -1) in
  {
    s_level;
    s_scc = scc_of;
    s_slot;
    s_cyclic_size;
    s_cyclic_scc;
    s_members = members;
    s_n_levels = n_levels;
    s_n_sccs = n_sccs;
    s_max_scc_size = max_scc_size;
  }

(* Every instance in one level and one feedback component: the level
   sweep degenerates to a single FIFO bucket under one budget of
   [max 10_000 (n * 200)] evaluations — the plain FIFO relaxation. *)
let flat nl =
  let n = Netlist.n_insts nl in
  let k = min 1 n in
  {
    s_level = Array.make (max 1 n) 0;
    s_scc = Array.make (max 1 n) 0;
    s_slot = Array.make (max 1 n) 0;
    s_cyclic_size = Array.make k n;
    s_cyclic_scc = Array.make k 0;
    s_members = Array.make (max 1 k) (List.init n Fun.id);
    s_n_levels = k;
    s_n_sccs = k;
    s_max_scc_size = n;
  }

let level t i = t.s_level.(i)
let scc t i = t.s_scc.(i)
let cyclic_slot t i = t.s_slot.(i)
let n_cyclic t = Array.length t.s_cyclic_size
let cyclic_size t slot = t.s_cyclic_size.(slot)
let n_levels t = t.s_n_levels
let n_sccs t = t.s_n_sccs
let max_scc_size t = t.s_max_scc_size
let members t s = t.s_members.(s)

let cyclic_region t slot nl =
  let members = t.s_members.(t.s_cyclic_scc.(slot)) in
  let shown = ref [] in
  List.iteri
    (fun i v -> if i < 6 then shown := (Netlist.inst nl v).Netlist.i_name :: !shown)
    members;
  let names = String.concat ", " (List.rev !shown) in
  let total = List.length members in
  if total > 6 then Printf.sprintf "%s, ... (%d instances)" names total
  else Printf.sprintf "%s (%d instance%s)" names total (if total = 1 then "" else "s")

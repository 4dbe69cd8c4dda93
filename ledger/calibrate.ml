(* Host-speed probe of the layer-ledger benchmark (README.md in this
   directory).

   Runs a fixed job — allocation, hashing, sorting and pointer chasing
   over a few megabytes, the kind of work the verifier does — and prints
   its wall time in seconds.  It links nothing from the repository, so no
   change to the verifier can move it: what moves it is the shared host
   running faster or slower at the moment, which run.py divides out of
   every time it reports. *)

module StrMap = Map.Make (String)

let () =
  let t0 = Unix.gettimeofday () in
  let n = 30_000 in
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (i * 7919 mod n) (string_of_int i)
  done;
  let a = Array.init n (fun i -> i * 104729 mod n) in
  Array.sort compare a;
  let l = List.init n (fun i -> Hashtbl.find tbl a.(i)) in
  let m = List.fold_left (fun m s -> StrMap.add s (String.length s) m) StrMap.empty l in
  let total = StrMap.fold (fun _ v acc -> acc + v) m 0 in
  Printf.printf "%.6f %d\n" (Unix.gettimeofday () -. t0) total

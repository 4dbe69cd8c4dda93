(* Input generator and traced pipeline of the layer-ledger benchmark
   (README.md in this directory).

     main.exe gen WORKLOAD SEED SCALE DIR
     main.exe trace MANIFEST SECONDS

   [gen] writes DIR/WORKLOAD.sdl (and DIR/WORKLOAD.cases when the
   workload has cases) plus the manifest DIR/WORKLOAD.json that run.py
   drives scald_tv from: the command line or the serve request script,
   and the verdicts the generator planted.

   [trace] replays a manifest's pipeline in-process for about SECONDS,
   with a wall-clock span and a Gc.minor_words delta around every call
   into a layer, and prints the per-layer ledger as one JSON line.  The
   spans live here, around public library calls, so the verifier itself
   carries no benchmark code. *)

open Scald_core
module Json = Scald_incr.Json
module Session = Scald_incr.Session
module Edit = Scald_incr.Edit

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("ledger: " ^ m);
      exit 2)
    fmt

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1)
  in
  go 0

(* ---- inputs -------------------------------------------------------------- *)

let workloads = [ "sweep256"; "corners4"; "capacity100k"; "serve_edits" ]
let corner_spec = "typ,slow,fast,hot=1.4/1.2"

(* Registers given a slow data path.  Each yields exactly one set-up and
   one hold violation naming its SLOW net, at every scale and seed the
   benchmark uses: the expected verdicts come from the generator, not
   from the verifier under test. *)
let broken = 8

let chips ~scale name =
  match (scale, name) with
  | "smoke", _ -> 500
  | _, "capacity100k" -> 77_000
  | _ -> 8000

let serve_cycles ~scale = if scale = "smoke" then 20 else 500

(* The output net of every SLOW CHIP call in the emitted source. *)
let planted sdl =
  List.filter_map
    (fun line ->
      if not (String.starts_with ~prefix:"SLOW CHIP (" line) then None
      else
        match (find_sub line ") -> ", String.rindex_opt line ';') with
        | Some i, Some j when j > i + 5 -> Some (String.sub line (i + 5) (j - i - 5))
        | _ -> die "unexpected SLOW CHIP line %S" line)
    (String.split_on_char '\n' sdl)

let primary_inputs nl =
  let acc = ref [] in
  Netlist.iter_nets nl (fun n ->
      if String.starts_with ~prefix:"IN " n.Netlist.n_name then acc := n :: !acc);
  List.rev !acc

(* Instances in the transitive fanout of a net. *)
let cone_size nl start =
  let seen_net = Array.make (Netlist.n_nets nl) false in
  let seen_inst = Array.make (max 1 (Netlist.n_insts nl)) false in
  let q = Queue.create () in
  let count = ref 0 in
  seen_net.(start) <- true;
  Queue.add start q;
  while not (Queue.is_empty q) do
    Netlist.iter_fanout (Netlist.net nl (Queue.take q)) (fun i ->
        if not seen_inst.(i) then begin
          seen_inst.(i) <- true;
          incr count;
          match (Netlist.inst nl i).Netlist.i_output with
          | Some o when not seen_net.(o) ->
            seen_net.(o) <- true;
            Queue.add o q
          | Some _ | None -> ()
        end)
  done;
  !count

let cases_text cases =
  String.concat ""
    (List.map
       (fun case ->
         String.concat ", "
           (List.map
              (fun (name, v) ->
                Printf.sprintf "%s = %s" name (if v = Tvalue.V0 then "0" else "1"))
              case)
         ^ ";\n")
       cases)

let take n l = List.filteri (fun i _ -> i < n) l
let strs l = Json.List (List.map (fun s -> Json.Str s) l)

(* One serve cycle: stage a wire delay on a driven net, verify, revert
   the net to the default rule, verify again. *)
let serve_cycle signal =
  let delta edit =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "delta");
           ( "edits",
             Json.List
               [ Json.Obj (("edit", Json.Str "wire_delay") :: ("signal", Json.Str signal) :: edit) ]
           );
         ])
  in
  let verify = {|{"op":"verify"}|} in
  [
    delta [ ("min_ns", Json.Num 0.3); ("max_ns", Json.Num 2.7) ];
    verify;
    delta [ ("delay", Json.Null) ];
    verify;
  ]

(* "IN 12<0:3> .S0-7.6" -> 12 *)
let input_number name =
  let digits = String.sub name 3 (String.length name - 3) in
  let n = ref 0 and i = ref 0 in
  while !i < String.length digits && digits.[!i] >= '0' && digits.[!i] <= '9' do
    n := (!n * 10) + Char.code digits.[!i] - Char.code '0';
    incr i
  done;
  !n

let gen name seed scale dir =
  if not (List.mem name workloads) then die "unknown workload %S" name;
  (* The circuit is netgen's seed-1 design at every benchmark seed, on
     which every planted path shows.  Other netgen seeds change a run's
     cost by as much as 70%, and the same statements in another order its
     peak memory by as much as 20%: that would drown the changes the
     benchmark exists to see.  The seed picks the serve edit nets. *)
  let design =
    Netgen.generate
      (Netgen.scaled ~seed:1 ~broken_registers:broken ~chips:(chips ~scale name) ())
  in
  let sdl = Netgen.to_sdl design in
  let path ext = Filename.concat dir (name ^ ext) in
  write_file (path ".sdl") sdl;
  let planted = planted sdl in
  if List.length planted <> broken then
    die "%s: expected %d planted paths, found %d" name broken (List.length planted);
  let netlist () = (Netgen.to_netlist design).Scald_sdl.Expander.e_netlist in
  let inputs nl =
    List.sort
      (fun a b -> compare (input_number a) (input_number b))
      (List.map (fun n -> n.Netlist.n_name) (primary_inputs nl))
  in
  let write_cases cases = write_file (path ".cases") (cases_text cases) in
  let cli ?(lint = false) ?corners ~cases () =
    let opt flag = function Some v -> [ flag; v ] | None -> [] in
    let cases = if cases then Some (path ".cases") else None in
    [
      ("kind", Json.Str "cli");
      ( "args",
        strs
          ((path ".sdl" :: opt "--cases" cases)
          @ (if lint then [ "--lint" ] else [])
          @ opt "--corners" corners @ [ "-q" ]) );
      ("cases", match cases with Some c -> Json.Str c | None -> Json.Null);
      ("lint", Json.Bool lint);
      ("corners", match corners with Some c -> Json.Str c | None -> Json.Null);
    ]
  in
  let fields =
    match name with
    | "sweep256" ->
      (* complete case analysis over primary inputs IN 0 .. IN 7: the
         thesis's §2.7 sweep *)
      write_cases (Case_analysis.complete_exn (take 8 (inputs (netlist ()))));
      cli ~lint:true ~cases:true ()
    | "corners4" ->
      (* 32 cases over the 5 inputs with the smallest cones: mode bits
         that reconfigure a slice of the design per case *)
      let nl = netlist () in
      let ins =
        List.map (fun n -> (cone_size nl n.Netlist.n_id, n.Netlist.n_name)) (primary_inputs nl)
        |> List.sort compare |> take 5 |> List.map snd
      in
      write_cases (Case_analysis.complete_exn ins);
      let others = List.tl (String.split_on_char ',' corner_spec) in
      cli ~corners:corner_spec ~cases:true () @ [ ("other_corners", strs others) ]
    | "capacity100k" -> cli ~cases:false ()
    | _ ->
      let nl = netlist () in
      let first = List.hd (inputs nl) in
      write_cases [ [ (first, Tvalue.V0) ]; [ (first, Tvalue.V1) ] ];
      let driven =
        let acc = ref [] in
        Netlist.iter_nets nl (fun n ->
            (* macro-internal nets ($...) cannot be named in an edit *)
            if
              n.Netlist.n_driver <> None
              && Netlist.fanout_count n > 0
              && not (String.starts_with ~prefix:"$" n.Netlist.n_name)
            then
              acc := n.Netlist.n_name :: !acc);
        Array.of_list (List.sort compare !acc)
      in
      let rng = Netgen.Rng.create seed in
      let cycles =
        List.init (serve_cycles ~scale) (fun _ ->
            strs (serve_cycle (Netgen.Rng.choose rng driven)))
      in
      [
        ("kind", Json.Str "serve");
        ( "load",
          Json.Str
            (Json.to_string
               (Json.Obj
                  [
                    ("op", Json.Str "load");
                    ("file", Json.Str (path ".sdl"));
                    ("cases_file", Json.Str (path ".cases"));
                  ])) );
        ("cycles", Json.List cycles);
      ]
  in
  write_file (path ".json")
    (Json.to_string
       (Json.Obj
          ([ ("workload", Json.Str name); ("sdl", Json.Str (path ".sdl")) ]
          @ fields
          @ [
              ("exit", Json.of_int 2);
              ("planted", strs planted);
              ("violations", Json.of_int (2 * broken));
            ])))

(* ---- the layer ledger ---------------------------------------------------- *)

(* Self time and self allocation per layer: a span's own cost minus what
   the spans nested inside it took. *)
type cell = { mutable self_s : float; mutable self_w : float }
type frame = { mutable child_s : float; mutable child_w : float }

let cells : (string, cell) Hashtbl.t = Hashtbl.create 32
let stack : frame list ref = ref []

let layer name f =
  let fr = { child_s = 0.; child_w = 0. } in
  stack := fr :: !stack;
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let finish () =
    let dw = Gc.minor_words () -. w0 in
    let dt = Unix.gettimeofday () -. t0 in
    stack := List.tl !stack;
    (match !stack with
    | p :: _ ->
      p.child_s <- p.child_s +. dt;
      p.child_w <- p.child_w +. dw
    | [] -> ());
    let c =
      match Hashtbl.find_opt cells name with
      | Some c -> c
      | None ->
        let c = { self_s = 0.; self_w = 0. } in
        Hashtbl.add cells name c;
        c
    in
    c.self_s <- c.self_s +. dt -. fr.child_s;
    c.self_w <- c.self_w +. dw -. fr.child_w
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* The verifier's and the session's own phase names, folded per layer. *)
let probe rename =
  { Verifier.pr_span = (fun name f -> layer (rename name) f); pr_event = None }

let cli_layer name =
  if String.ends_with ~suffix:":corners" name then "check.corners"
  else if String.starts_with ~prefix:"evaluate:" name then "evaluate"
  else if String.starts_with ~prefix:"check:" name then "check"
  else name

let serve_layer name =
  if String.starts_with ~prefix:"evaluate:" name then "incr.evaluate"
  else if String.starts_with ~prefix:"check:" name then "incr.check"
  else "incr." ^ name

let fine_layers =
  [ "read"; "sdl.parse"; "sdl.expand"; "lint"; "sched"; "flow"; "window"; "evaluate";
    "check"; "check.corners"; "verify.other"; "report"; "serve.decode"; "incr.apply";
    "incr.cone"; "incr.evaluate"; "incr.check"; "incr.fingerprint"; "incr.other";
    "incr.digest"; "serve.encode" ]

(* Time is reported per group, each of which every workload exercises:
   the CLI pipeline and the serve request path share no fine layer but
   the evaluator, so a fine layer's time would read 0 on the other
   workloads.  Allocation is reported per fine layer. *)
let groups =
  [
    ("front", [ "read"; "sdl.parse"; "sdl.expand"; "serve.decode"; "incr.apply" ]);
    ("analyse", [ "lint"; "sched"; "flow"; "window"; "incr.cone" ]);
    ("evaluate", [ "evaluate"; "incr.evaluate" ]);
    ("check", [ "check"; "check.corners"; "incr.check" ]);
    ("emit", [ "report"; "incr.fingerprint"; "incr.digest"; "serve.encode" ]);
    ("other", [ "verify.other"; "incr.other" ]);
  ]

let checker_kinds = [ "SETUP HOLD CHK"; "SETUP RISE HOLD FALL CHK"; "MIN PULSE WIDTH" ]

let counters ?lint ~prims (r : Verifier.report) =
  let o = r.Verifier.r_obs in
  [
    ("eval.events", r.Verifier.r_events);
    ("eval.evaluations", r.Verifier.r_evaluations);
    ("eval.queued", o.Verifier.os_queued);
    ("eval.coalesced", o.Verifier.os_coalesced);
    ("eval.cache_hits", o.Verifier.os_cache_hits);
    ("eval.cache_misses", o.Verifier.os_cache_misses);
    ( "eval.checker_evals",
      List.fold_left
        (fun acc (k, n) -> if List.mem k checker_kinds then acc + n else acc)
        0 o.Verifier.os_evals_by_kind );
    ("prune.pruned_evals", o.Verifier.os_pruned_evals);
    ("window.insts_proven", o.Verifier.os_window_insts);
    ("window.window_evals", o.Verifier.os_window_evals);
    ("window.window_checks", o.Verifier.os_window_checks);
    ("corner.lanes_shared", o.Verifier.os_corner_lanes_shared);
    ("corner.evals_saved", o.Verifier.os_corner_evals_saved);
    ( "lint.findings",
      match lint with
      | Some lr -> List.length lr.Scald_lint.Lint_report.findings
      | None -> 0 );
    ("netlist.prims", prims);
  ]

(* Zero on the CLI workloads, which run no session. *)
let incr_counters (st : Session.stats option) =
  let f g = match st with Some st -> g st | None -> 0 in
  [
    ("incr.dirtied_nets", f (fun st -> st.Session.st_dirtied_nets));
    ("incr.warm_hits", f (fun st -> st.Session.st_warm_hits));
    ("incr.fp_changed", f (fun st -> st.Session.st_fp_changed));
  ]

(* One measured operation: its wall time, the per-layer cells it filled,
   its counters and the expander's own Pass 1 / Pass 2 CPU seconds. *)
type op = {
  o_wall : float;
  o_cells : (string * float * float) list;
  o_counts : (string * float) list;
  o_pass : float * float;
}

let take_cells () =
  let l = Hashtbl.fold (fun k c acc -> (k, c.self_s, c.self_w) :: acc) cells [] in
  Hashtbl.reset cells;
  l

(* ---- manifest access ---- *)

let member m key =
  match Json.member key m with Some v -> v | None -> die "manifest lacks %S" key

let str_of m key =
  match Json.str (member m key) with Some s -> s | None -> die "manifest %S: not a string" key

let opt_str m key = Option.bind (Json.member key m) Json.str

let strs_of j =
  match Json.list j with
  | Some l -> List.map (fun s -> Option.value ~default:"" (Json.str s)) l
  | None -> die "manifest: expected a list of strings"

(* The reference-corner listing holds exactly the planted violations: one
   SETUP and one HOLD line per planted net, nothing else. *)
let listing_ok m listing =
  let rec body = function
    | [] -> []
    | "SETUP, HOLD AND MINIMUM PULSE WIDTH ERRORS" :: rest ->
      let rec upto = function "" :: _ | [] -> [] | l :: rest -> l :: upto rest in
      upto rest
    | _ :: rest -> body rest
  in
  let vs = body (String.split_on_char '\n' listing) in
  let planted = strs_of (member m "planted") in
  let count kind p =
    List.length
      (List.filter
         (fun l -> find_sub l (Printf.sprintf ": %s TIME VIOLATED  SIGNAL = %s  " kind p) <> None)
         vs)
  in
  List.length vs = 2 * List.length planted
  && List.for_all (fun p -> count "SETUP" p = 1 && count "HOLD" p = 1) planted

let expect_ok what = function Ok v -> v | Error e -> die "%s: %s" what e
let floats l = List.map (fun (k, v) -> (k, float_of_int v)) l

(* ---- traced CLI run: the pipeline of bin/scald_tv.ml ---- *)

let cli_op m =
  let t0 = Unix.gettimeofday () in
  let src = layer "read" (fun () -> read_file (str_of m "sdl")) in
  let ast = expect_ok "parse" (layer "sdl.parse" (fun () -> Scald_sdl.Parser.parse src)) in
  let e = expect_ok "expand" (layer "sdl.expand" (fun () -> Scald_sdl.Expander.expand ast)) in
  let nl = e.Scald_sdl.Expander.e_netlist in
  let lint =
    if Json.bool (member m "lint") = Some true then
      Some (layer "lint" (fun () -> Scald_lint.Lint.audit nl))
    else None
  in
  let corners = Option.map Corner.of_spec (opt_str m "corners") in
  let cases, case_nets =
    layer "read" (fun () ->
        let cases =
          match opt_str m "cases" with
          | Some p -> Case_analysis.parse_exn (read_file p)
          | None -> []
        in
        (* the window table's lane count comes from the corner table *)
        Option.iter (Netlist.set_corners nl) corners;
        let case_list = match cases with [] -> [ [] ] | cs -> cs in
        (cases, List.concat_map (fun c -> List.map fst (Case_analysis.resolve nl c)) case_list))
  in
  (* The analyses [Verifier.verify] would compute itself, computed here
     and passed in so that each gets its own span. *)
  let sched = layer "sched" (fun () -> Sched.compute nl) in
  let flow = layer "flow" (fun () -> Flow.analyse ~sched ~case_nets nl) in
  let window = layer "window" (fun () -> Window.analyse ~sched ~case_nets nl) in
  let report =
    layer "verify.other" (fun () ->
        Verifier.verify ~probe:(probe cli_layer) ?corners ~cases ~jobs:1
          ~analysis:(sched, flow) ~window nl)
  in
  let listing =
    layer "report" (fun () ->
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        Option.iter (Format.fprintf ppf "@.%a@." Scald_lint.Lint_report.pp) lint;
        Format.fprintf ppf "@.%a@." Report.pp_violations report.Verifier.r_violations;
        (match report.Verifier.r_corners with
        | [] | [ _ ] -> ()
        | rcs ->
          Format.fprintf ppf "@.MULTI-CORNER SUMMARY@.";
          List.iter
            (fun (cr : Verifier.corner_result) ->
              let n = List.length cr.Verifier.co_violations in
              Format.fprintf ppf "  %-24s %d error%s@."
                (Format.asprintf "%a" Corner.pp cr.Verifier.co_corner)
                n (if n = 1 then "" else "s"))
            rcs);
        Format.pp_print_flush ppf ();
        Buffer.contents buf)
  in
  let wall = Unix.gettimeofday () -. t0 in
  let counts =
    counters ?lint ~prims:(Netlist.n_insts nl) report
    @ incr_counters None
  in
  ( listing_ok m listing,
    {
      o_wall = wall;
      o_cells = take_cells ();
      o_counts = floats counts;
      o_pass = (e.Scald_sdl.Expander.e_pass1_s, e.Scald_sdl.Expander.e_pass2_s);
    } )

(* ---- traced serve session: the delta and verify handlers of lib/incr/serve.ml ---- *)

let ok_response op fields = Json.Obj (("ok", Json.Bool true) :: ("op", Json.Str op) :: fields)

(* Every response carries the session's content digest, which a verify
   has just invalidated: the response pays for its recompute. *)
let respond s op fields =
  let digest = layer "incr.digest" (fun () -> Session.digest s) in
  ignore
    (layer "serve.encode" (fun () ->
         Json.to_string
           (ok_response op
              (("session", Json.Str (Session.id s)) :: ("digest", Json.Str digest) :: fields))))

let serve_request s line =
  let req = layer "serve.decode" (fun () -> expect_ok "request" (Json.parse line)) in
  match Option.bind (Json.member "op" req) Json.str with
  | Some "delta" ->
    layer "serve.decode" (fun () ->
        List.iter
          (fun ej ->
            let e = expect_ok "edit" (Edit.of_json ej) in
            expect_ok "edit" (Edit.check (Session.netlist s) e);
            Session.stage s e)
          (Option.value ~default:[] (Option.bind (Json.member "edits" req) Json.list)));
    respond s "delta" [ ("staged", Json.of_int (Session.pending s)) ];
    None
  | Some "verify" ->
    let report, st = layer "incr.other" (fun () -> Session.reverify ~carry_counters:false s) in
    respond s "verify"
      [
        ("violations", Json.of_int (List.length report.Verifier.r_violations));
        ("converged", Json.Bool report.Verifier.r_converged);
        ("cases", Json.of_int (List.length report.Verifier.r_cases));
        ("unasserted", Json.of_int (List.length report.Verifier.r_unasserted));
        ("reused_nets", Json.of_int st.Session.st_reused_nets);
        ("dirtied_nets", Json.of_int st.Session.st_dirtied_nets);
        ("warm_hits", Json.of_int st.Session.st_warm_hits);
        ("events", Json.of_int st.Session.st_events);
        ("evaluations", Json.of_int st.Session.st_evaluations);
        ("fresh", Json.Bool true);
      ];
    Some (report, st)
  | _ -> die "unexpected request %s" line

(* One op is one verify request together with the delta before it, so a
   cycle (edit, verify, revert, verify) counts as two. *)
let serve_cycle_op m s ~pass lines =
  let t0 = Unix.gettimeofday () in
  let verifies = List.filter_map (serve_request s) lines in
  let wall = Unix.gettimeofday () -. t0 in
  let prims = Netlist.n_insts (Session.netlist s) in
  let per_verify =
    List.map (fun (r, st) -> floats (counters ~prims r @ incr_counters (Some st))) verifies
  in
  let counts =
    List.map
      (fun (k, _) -> (k, List.fold_left (fun a c -> a +. List.assoc k c) 0. per_verify /. 2.))
      (List.hd per_verify)
  in
  (* the verify after the revert is back at the planted verdicts *)
  let ok =
    match List.rev verifies with
    | (r, _) :: _ -> Json.int (member m "violations") = Some (List.length r.Verifier.r_violations)
    | [] -> false
  in
  let cells = List.map (fun (k, s, w) -> (k, s /. 2., w /. 2.)) (take_cells ()) in
  (ok, { o_wall = wall /. 2.; o_cells = cells; o_counts = counts; o_pass = pass })

(* The daemon's load request, untraced: it is the workload's set-up. *)
let serve_session m =
  let load = expect_ok "load" (Json.parse (str_of m "load")) in
  let e =
    expect_ok "load"
      (Result.bind (Scald_sdl.Parser.parse (read_file (str_of load "file")))
         Scald_sdl.Expander.expand)
  in
  let cases = Case_analysis.parse_exn (read_file (str_of load "cases_file")) in
  let s = Session.load ~cases ~probe:(probe serve_layer) e.Scald_sdl.Expander.e_netlist in
  ignore (take_cells ());
  (s, (e.Scald_sdl.Expander.e_pass1_s, e.Scald_sdl.Expander.e_pass2_s))

(* ---- the traced run ---- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let cell_of op name =
  List.fold_left
    (fun (s, w) (k, s', w') -> if k = name then (s +. s', w +. w') else (s, w))
    (0., 0.) op.o_cells

(* Counters and allocations repeat exactly for the same input; they are
   taken over the first [fixed] ops, which every run completes, so two
   runs report the same numbers however many ops their time allowed.
   Times are medians over every op. *)
let trace manifest seconds =
  let m = expect_ok "manifest" (Json.parse (read_file manifest)) in
  let deadline = Unix.gettimeofday () +. seconds in
  let ops = ref [] and failed = ref 0 in
  let record (ok, op) =
    if not ok then incr failed;
    ops := op :: !ops
  in
  let fixed =
    match str_of m "kind" with
    | "serve" ->
      let s, pass = serve_session m in
      let cycles = List.map strs_of (Option.value ~default:[] (Json.list (member m "cycles"))) in
      let fixed = min 50 (List.length cycles) in
      let rec go i = function
        | [] -> go i cycles
        | c :: rest ->
          if i < fixed || Unix.gettimeofday () < deadline then begin
            record (serve_cycle_op m s ~pass c);
            go (i + 1) rest
          end
      in
      go 0 cycles;
      fixed
    | _ ->
      let fixed = 3 in
      let i = ref 0 in
      while !i < fixed || Unix.gettimeofday () < deadline do
        record (cli_op m);
        incr i
      done;
      fixed
  in
  let ops = List.rev !ops in
  let first = take fixed ops in
  let med f l = median (List.map f l) in
  let group_s members =
    med (fun o -> List.fold_left (fun a n -> a +. fst (cell_of o n)) 0. members) ops
  in
  let sum_ops f = List.fold_left (fun a o -> a +. f o) 0. ops in
  let coverage =
    sum_ops (fun o -> List.fold_left (fun a (_, s, _) -> a +. s) 0. o.o_cells)
    /. sum_ops (fun o -> o.o_wall)
  in
  let metrics =
    List.map (fun (g, members) -> (g ^ ".self_s", group_s members)) groups
    @ List.map
        (fun n -> (n ^ ".minor_mw", med (fun o -> snd (cell_of o n)) first /. 1e6))
        fine_layers
    @ List.map
        (fun (k, _) -> (k, med (fun o -> List.assoc k o.o_counts) first))
        (List.hd ops).o_counts
    @ [
        ("sdl.pass1_s", med (fun o -> fst o.o_pass) ops);
        ("sdl.pass2_s", med (fun o -> snd o.o_pass) ops);
        ("trace.coverage", coverage);
      ]
  in
  let num_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("ops", Json.of_int (List.length ops));
            ("failed", Json.of_int !failed);
            ("op_s", Json.Num (med (fun o -> o.o_wall) ops));
            ("metrics", num_obj metrics);
            ( "fine_s",
              num_obj (List.map (fun n -> (n, med (fun o -> fst (cell_of o n)) ops)) fine_layers)
            );
          ]))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; name; seed; scale; dir ] -> (
    match int_of_string_opt seed with
    | Some seed when scale = "full" || scale = "smoke" -> gen name seed scale dir
    | _ -> die "gen: bad seed %S or scale %S (full|smoke)" seed scale)
  | [ "trace"; manifest; seconds ] -> (
    match float_of_string_opt seconds with
    | Some s -> trace manifest s
    | None -> die "trace: bad seconds %S" seconds)
  | _ ->
    prerr_endline "usage: main.exe gen WORKLOAD SEED full|smoke DIR | trace MANIFEST SECONDS";
    exit 2

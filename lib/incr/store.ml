type outcome =
  | Cold of Session.t
  | Warm of Session.t
  | Adopted of Session.t * int

type t = {
  mutable sessions : Session.t list;  (* newest first *)
  mutable loads : int;
  mutable warm_loads : int;
  mutable adopted_loads : int;
}

let create () = { sessions = []; loads = 0; warm_loads = 0; adopted_loads = 0 }

let sessions t = t.sessions
let n_sessions t = List.length t.sessions
let loads t = t.loads
let warm_loads t = t.warm_loads
let adopted_loads t = t.adopted_loads

let find t handle =
  List.find_opt
    (fun s -> String.equal (Session.id s) handle || String.equal (Session.digest s) handle)
    t.sessions

let latest t = match t.sessions with [] -> None | s :: _ -> Some s

(* Move a session to the front: [latest] is "most recently used", which
   is what a client that omits the session handle means. *)
let promote t s =
  t.sessions <- s :: List.filter (fun s' -> s' != s) t.sessions

let same_cases a b = a = b

let load t ?(cases = []) ?probe nl =
  t.loads <- t.loads + 1;
  (* one canonical walk serves both lookups and, on a cold load, the
     new session's content *)
  let content = Fingerprint.content nl in
  let digest = Fingerprint.content_digest content in
  let by_digest =
    List.find_opt
      (fun s -> String.equal (Session.digest s) digest)
      t.sessions
  in
  match by_digest with
  | Some s when same_cases (Session.cases s) cases && Session.pending s = 0 ->
    t.warm_loads <- t.warm_loads + 1;
    promote t s;
    Warm s
  | Some s when Session.pending s = 0 ->
    (* same parameters, different case group: adopt by swapping cases *)
    t.adopted_loads <- t.adopted_loads + 1;
    Session.stage s (Edit.Cases cases);
    promote t s;
    Adopted (s, 1)
  | _ -> (
    let skeleton = Fingerprint.content_skeleton content in
    let by_skeleton =
      List.find_opt
        (fun s ->
          String.equal (Session.skeleton s) skeleton && Session.pending s = 0)
        t.sessions
    in
    match by_skeleton with
    | Some s ->
      (* Same structure, different parameters: adopt the live session by
         replaying the parameter diff.  The submitted netlist is only
         read for the diff and then dropped — the session keeps (and
         edits) its own. *)
      let edits = Edit.diff (Session.netlist s) nl in
      List.iter (Session.stage s) edits;
      let n =
        if same_cases (Session.cases s) cases then List.length edits
        else begin
          Session.stage s (Edit.Cases cases);
          List.length edits + 1
        end
      in
      t.adopted_loads <- t.adopted_loads + 1;
      promote t s;
      Adopted (s, n)
    | None ->
      let s = Session.load ~cases ?probe ~content nl in
      t.sessions <- s :: t.sessions;
      Cold s)

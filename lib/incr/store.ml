type outcome =
  | Cold of Session.t
  | Warm of Session.t
  | Adopted of Session.t * int

type t = { mutable sessions : Session.t list (* newest first *) }

let create () = { sessions = [] }
let sessions t = t.sessions
let n_sessions t = List.length t.sessions

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
    promote t s;
    Warm s
  | Some s when Session.pending s = 0 ->
    (* same parameters, different case group: adopt by swapping cases *)
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
    (* The parameter diff is replayed only if every edit checks: an edit
       cannot name an instance whose name several share. *)
    let adoptable =
      Option.bind by_skeleton (fun s ->
          let edits = Edit.diff (Session.netlist s) nl in
          if List.for_all (fun e -> Edit.check (Session.netlist s) e = Ok ()) edits then
            Some (s, edits)
          else None)
    in
    match adoptable with
    | Some (s, edits) ->
      (* Same structure, different parameters: adopt the live session by
         replaying the parameter diff.  The submitted netlist is only
         read for the diff and then dropped — the session keeps (and
         edits) its own. *)
      List.iter (Session.stage s) edits;
      let n =
        if same_cases (Session.cases s) cases then List.length edits
        else begin
          Session.stage s (Edit.Cases cases);
          List.length edits + 1
        end
      in
      promote t s;
      Adopted (s, n)
    | None ->
      let s = Session.load ~cases ?probe ~content nl in
      t.sessions <- s :: t.sessions;
      Cold s)

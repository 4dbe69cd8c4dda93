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

(* ---- the two-level digest ------------------------------------------------ *)

(* The digest hashes the chunks in blocks of [block_chunks] consecutive
   chunks: one MD5 per block over its chunks joined, then one MD5 over
   the block digests in order.  An edit stales only the blocks holding
   the chunks it changed, so the next digest re-hashes those blocks and
   the short string of block digests, not the whole dump.  The cold
   [digest] hashes every block the same way, so a cold load and an
   edited session that describe one netlist agree. *)
let block_chunks = 64
let md5_bytes = 16

type content = {
  (* [| header; net 0 .. net n-1; instance count; inst 0 .. inst m-1;
     trailer |] *)
  c_chunks : string array;
  c_n_nets : int;
  c_skeleton : string;
  (* block [k]'s digest at bytes [k * md5_bytes ..], current unless
     [c_stale.(k)] *)
  c_blocks : Bytes.t;
  c_stale : bool array;
  mutable c_digest : string option;
  (* one block's chunks are joined here to be hashed, reused by every
     block and every digest *)
  mutable c_block_buf : Bytes.t;
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
  let n_blocks = (Array.length chunks + block_chunks - 1) / block_chunks in
  {
    c_chunks = chunks;
    c_n_nets = n_nets;
    c_skeleton = Digest.to_hex (Digest.string (Buffer.contents sk));
    c_blocks = Bytes.create (n_blocks * md5_bytes);
    c_stale = Array.make n_blocks true;
    c_digest = None;
    c_block_buf = Bytes.empty;
  }

let hash_block c k =
  let first = k * block_chunks in
  let last = min (Array.length c.c_chunks) (first + block_chunks) - 1 in
  let len = ref 0 in
  for i = first to last do
    len := !len + String.length c.c_chunks.(i)
  done;
  if Bytes.length c.c_block_buf < !len then c.c_block_buf <- Bytes.create (2 * !len);
  let pos = ref 0 in
  for i = first to last do
    let s = c.c_chunks.(i) in
    Bytes.blit_string s 0 c.c_block_buf !pos (String.length s);
    pos := !pos + String.length s
  done;
  Bytes.blit_string (Digest.subbytes c.c_block_buf 0 !len) 0 c.c_blocks (k * md5_bytes)
    md5_bytes;
  c.c_stale.(k) <- false

let content_digest c =
  match c.c_digest with
  | Some d -> d
  | None ->
    for k = 0 to Array.length c.c_stale - 1 do
      if c.c_stale.(k) then hash_block c k
    done;
    let d = Digest.to_hex (Digest.bytes c.c_blocks) in
    c.c_digest <- Some d;
    d

let content_skeleton c = c.c_skeleton

(* Re-serialize the given nets and instances and the trailer; a chunk
   that actually changed stales its block and drops the digest. *)
let refresh c nl ~nets ~insts =
  let b = Buffer.create 256 in
  let put k s =
    if not (String.equal c.c_chunks.(k) s) then begin
      c.c_chunks.(k) <- s;
      c.c_stale.(k / block_chunks) <- true;
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

(* The codec lives in [Scald_core.Json]; this alias keeps the name
   [Scald_incr.Json] that the ledger harness compiles against. *)

include Scald_core.Json

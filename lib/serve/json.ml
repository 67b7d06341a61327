(* Re-export of [Hca_util.Json] under its former name, for code outside
   the library that still links [Hca_serve.Json]; new code uses
   [Hca_util.Json]. *)
include Hca_util.Json

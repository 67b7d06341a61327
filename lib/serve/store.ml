let magic = "HCA-MEMO-STORE"

(* v2: cache keys switched from the dspfabric-only [Dspfabric.id] to
   the total [Machine_desc.id] (fan-outs, wiring and heterogeneous
   tables included), so stores written by v1 builds must not be
   reused.
   v3: [State.t] (marshalled inside every memo entry) lost its
   speculation fields when the move paths merged, so v2 entries no
   longer match the record layout.
   v4: memo keys carry [Ddg.content_id] beside the kernel name, and
   [Ddg.t] (inside every entry) gained the id field.
   v5: [Hierarchy.subresult] lost [outcome], the SEE's final beam that
   every entry used to carry beside its committed state.
   v6: [Config.priority] lost its [Topological] constructor, and the
   stamp beside the version became a digest of the sources instead of
   the working directory's git state.
   v7: [State.t] gained the search-wide II window its copies share. *)
let format_version = "v7"

(* Memo entries embed solver-internal structures, so any code change
   can silently change their meaning: the stamp ties a file to the
   sources that built its reader.  The digest is fixed at build time
   (lib/util/dune), so computing the stamp spawns and reads nothing. *)
let default_stamp () =
  Printf.sprintf "hca-store:%s:%s" Hca_util.Source_digest.value format_version

let save ~path ~stamp snapshot =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (magic ^ "\n");
        output_string oc (stamp ^ "\n");
        Marshal.to_channel oc snapshot []);
    Sys.rename tmp path;
    Hca_core.Hierarchy.snapshot_length snapshot
  with
  | n -> Ok n
  | exception Sys_error e -> Error ("store save: " ^ e)

let load ~path ~stamp =
  if not (Sys.file_exists path) then Ok None
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let header = try input_line ic with End_of_file -> "" in
          if header <> magic then
            Error (Printf.sprintf "not a memo store (bad magic %S)" header)
          else
            let file_stamp = try input_line ic with End_of_file -> "" in
            if file_stamp <> stamp then Ok None (* stale: start cold *)
            else
              match
                (Marshal.from_channel ic : Hca_core.Hierarchy.snapshot)
              with
              | snapshot -> Ok (Some snapshot)
              | exception (Failure _ | End_of_file) ->
                  Error "truncated or corrupt memo store payload")
    with
    | r -> r
    | exception Sys_error e -> Error ("store load: " ^ e)

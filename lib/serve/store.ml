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
   v7: [State.t] gained the search-wide II window its copies share.
   v8: entries hold the committed record ([Hierarchy.subresult])
   instead of the SEE's state, the problem and the Mapper's result;
   keys hold their working set as an int array; and the payload is
   framed by its length and digest. *)
let format_version = "v8"

(* Memo entries embed solver-internal structures, so any code change
   can silently change their meaning: the stamp ties a file to the
   sources that built its reader.  The digest is fixed at build time
   (lib/util/dune), so computing the stamp spawns and reads nothing. *)
let default_stamp () =
  Printf.sprintf "hca-store:%s:%s" Hca_util.Source_digest.value format_version

(* Layout: four text lines — magic, stamp, payload length in bytes,
   payload MD5 in hex — then the payload, the [Marshal]led snapshot.
   [Marshal] trusts its input, so [load] checks the length and the
   digest first: a flipped or missing byte is refused, never
   unmarshalled. *)
let save ~path ~stamp snapshot =
  let tmp = path ^ ".tmp" in
  match
    let payload = Marshal.to_string (snapshot : Hca_core.Hierarchy.snapshot) [] in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Printf.fprintf oc "%s\n%s\n%d\n%s\n" magic stamp
          (String.length payload)
          (Digest.to_hex (Digest.string payload));
        output_string oc payload;
        flush oc;
        (* on disk before the rename makes it the store *)
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path;
    Hca_core.Hierarchy.snapshot_length snapshot
  with
  | n -> Ok n
  | exception Sys_error e -> Error ("store save: " ^ e)
  | exception Unix.Unix_error (e, _, _) ->
      Error ("store save: " ^ Unix.error_message e)

let load ~path ~stamp =
  if not (Sys.file_exists path) then Ok None
  else
    let line ic = try input_line ic with End_of_file -> "" in
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let header = line ic in
          if header <> magic then
            Error
              (Printf.sprintf "not a memo store (bad magic %S)"
                 (String.sub header 0 (min 32 (String.length header))))
          else if line ic <> stamp then Ok None (* stale: start cold *)
          else
            let length = int_of_string_opt (line ic) in
            let digest = line ic in
            let left = in_channel_length ic - pos_in ic in
            match length with
            | Some n when n = left ->
                let payload = really_input_string ic n in
                if Digest.to_hex (Digest.string payload) <> digest then
                  Error "memo store payload fails its digest"
                else
                  Ok
                    (Some
                       (Marshal.from_string payload 0
                         : Hca_core.Hierarchy.snapshot))
            | _ ->
                Error
                  (Printf.sprintf
                     "memo store payload is %d bytes, its header says %s" left
                     (match length with
                     | Some n -> string_of_int n
                     | None -> "nothing readable")))
    with
    | r -> r
    | exception Sys_error e -> Error ("store load: " ^ e)
    | exception (End_of_file | Failure _ | Invalid_argument _) ->
        Error "truncated or corrupt memo store payload"
    | exception Out_of_memory -> Error "memo store too large to load"

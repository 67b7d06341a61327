(* Build-time generator of [Source_digest]: [digest_sources.exe ROOT OUT]
   writes to OUT a module binding [value] to the hex digest of every
   [.ml], [.mli] and [dune] file under ROOT, each keyed by its path
   relative to ROOT, in sorted order.  The dune rule runs it in a
   sandbox that holds only the sources, and OUT is created after the
   walk, so the walk sees exactly the sources. *)

let rec walk root rel =
  let names = Sys.readdir (Filename.concat root rel) in
  Array.sort compare names;
  Array.to_list names
  |> List.concat_map (fun name ->
         let rel = Filename.concat rel name in
         if name.[0] = '.' || name.[0] = '_' then []
         else if Sys.is_directory (Filename.concat root rel) then walk root rel
         else if
           name = "dune"
           || Filename.check_suffix name ".ml"
           || Filename.check_suffix name ".mli"
         then [ rel ]
         else [])

let () =
  let root = Sys.argv.(1) in
  let keyed =
    List.map
      (fun rel -> rel ^ "\000" ^ Digest.to_hex (Digest.file (Filename.concat root rel)))
      (walk root ".")
  in
  Out_channel.with_open_text Sys.argv.(2) (fun oc ->
      Printf.fprintf oc "let value = %S\n"
        (Digest.to_hex (Digest.string (String.concat "\n" keyed))))

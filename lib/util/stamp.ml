let git_describe =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some v -> v
    | None ->
        let v =
          match
            let ic =
              Unix.open_process_in "git describe --always --dirty 2>/dev/null"
            in
            let line = try input_line ic with End_of_file -> "" in
            (Unix.close_process_in ic, line)
          with
          | Unix.WEXITED 0, line when line <> "" -> line
          | _ -> "unknown"
          | exception _ -> "unknown"
        in
        memo := Some v;
        v

let hash v = Printf.sprintf "%08x" (Hashtbl.hash v land 0xffffffff)

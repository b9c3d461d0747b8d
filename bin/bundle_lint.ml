(* Validate forensics bundle documents against the perm.forensics/2
   schema with the same checker the test suite uses: required sections
   (plan, metrics delta, event tail, WAL, spill, settings), field types
   and the anomaly-class enum. CI runs every bundle a forensics scenario
   produced through this.

   With file arguments, each is validated independently; without, one
   document is read from stdin. Exit 0 and a one-line summary per
   bundle on success; exit 1 after reporting every violation. *)

let check label input =
  match Perm_obs.Bundle_schema.validate_string input with
  | Ok cls ->
    Printf.printf "OK: %s is a well-formed %s bundle\n" label cls;
    true
  | Error msg ->
    Printf.eprintf "INVALID: %s: %s\n" label msg;
    false

let () =
  let ok =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as paths) ->
      List.fold_left
        (fun acc path ->
          let input =
            In_channel.with_open_text path In_channel.input_all
          in
          check path input && acc)
        true paths
    | _ -> check "<stdin>" (In_channel.input_all In_channel.stdin)
  in
  if not ok then exit 1

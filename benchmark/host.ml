(* The host record written into every result: what the numbers were
   measured on, and whether something else was loading the machine. *)

module Json = Mincut_util.Json

let read_lines path =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> lines
  | exception Sys_error _ -> []

(* CPUs this process may run on, as nproc(1) counts them: the
   Cpus_allowed_list of /proc/self/status ("0-3,6"), falling back to the
   runtime's recommendation *)
let nproc () =
  let count_ranges s =
    String.split_on_char ',' (String.trim s)
    |> List.fold_left
         (fun acc r ->
           match String.split_on_char '-' r with
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | [ _ ] -> acc + 1
           | _ -> acc)
         0
  in
  let prefix = "Cpus_allowed_list:" in
  let k = String.length prefix in
  read_lines "/proc/self/status"
  |> List.find_map (fun line ->
         if String.length line > k && String.sub line 0 k = prefix then
           match count_ranges (String.sub line k (String.length line - k)) with
           | n when n > 0 -> Some n
           | _ -> None
           | exception Failure _ -> None
         else None)
  |> Option.value ~default:(Domain.recommended_domain_count ())

let loadavg () =
  match read_lines "/proc/loadavg" with
  | line :: _ -> (
      match String.split_on_char ' ' line with
      | a :: b :: c :: _ -> (
          match (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c) with
          | Some a, Some b, Some c -> Some (a, b, c)
          | _ -> None)
      | _ -> None)
  | [] -> None

(* the commit, when the run happens inside a git work tree *)
let git_commit () =
  match read_lines ".git/HEAD" with
  | [ line ] when String.length line > 5 && String.sub line 0 5 = "ref: " -> (
      match read_lines (".git/" ^ String.sub line 5 (String.length line - 5)) with
      | [ sha ] -> Some sha
      | _ -> None)
  | [ sha ] -> Some sha
  | _ -> None

let load_json = function
  | Some (a, b, c) -> Json.List [ Json.Float a; Json.Float b; Json.Float c ]
  | None -> Json.Null

type t = { json : Json.t; noisy : bool }

(* [start] is the load average sampled when the run began *)
let record ~start =
  let finish = loadavg () in
  let cpus = nproc () in
  let one = function Some (a, _, _) -> a | None -> 0.0 in
  let noisy = Float.max (one start) (one finish) > float_of_int cpus in
  let g = Gc.get () in
  let json =
    Json.Obj
      [
        ("nproc", Json.Int cpus);
        ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Json.String Sys.ocaml_version);
        ( "gc",
          Json.Obj
            [
              ("minor_heap_size", Json.Int g.Gc.minor_heap_size);
              ("space_overhead", Json.Int g.Gc.space_overhead);
              ("max_overhead", Json.Int g.Gc.max_overhead);
              ("allocation_policy", Json.Int g.Gc.allocation_policy);
            ] );
        ( "git_commit",
          match git_commit () with Some c -> Json.String c | None -> Json.Null );
        ("loadavg_start", load_json start);
        ("loadavg_end", load_json finish);
        ("noisy_host", Json.Bool noisy);
      ]
  in
  { json; noisy }

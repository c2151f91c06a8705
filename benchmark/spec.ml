(* BENCHMARK.json, read at run time: the one place that names the
   workloads and gives every metric its unit, direction and bound. *)

module Json = Mincut_util.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () =
  let text =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> failwith ("cannot read " ^ e)
  in
  let json =
    match Json.of_string text with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)
  in
  let str j k = Option.bind (Json.member k j) Json.to_str in
  let list k =
    match Option.bind (Json.member k json) Json.to_list with
    | Some l -> l
    | None -> failwith (Printf.sprintf "%s: no %S list" path k)
  in
  let metric j =
    match (str j "name", str j "unit", str j "better") with
    | Some name, Some unit_, Some better ->
        {
          name;
          unit_;
          lower_is_better = String.equal better "lower";
          bound = Option.bind (Json.member "bound" j) Json.to_float;
        }
    | _ -> failwith (path ^ ": a metric lacks name, unit or better")
  in
  {
    run_seconds =
      (match Option.bind (Json.member "run_seconds" json) Json.to_float with
      | Some s -> s
      | None -> failwith (path ^ ": no run_seconds"));
    workloads = List.filter_map (fun j -> str j "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* End-to-end benchmark: see README.md next to this file.

     main.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1]
              [--json FILE] [--commit C]
     main.exe compare RUN.json...
     main.exe smoke BENCHMARK.json

   A run prints every metric as "workload metric value unit", then, as
   its last line, one JSON object with the keys correct, attempted,
   failed and metrics.  It exits 1 when any output failed its check.
   Without --workload every workload runs, each in its own process. *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  json : string option;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
     [--json FILE] [--commit C]\n\
    \       main.exe compare RUN.json...\n\
    \       main.exe smoke BENCHMARK.json\n\
     workloads: serve-rep serve-ec hammer explore";
  exit 2

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem w Workloads.names ->
        go { o with workload = Some w } rest
    | "--seed" :: s :: rest when Option.is_some (int_of_string_opt s) ->
        go { o with seed = int_of_string s } rest
    | "--seconds" :: s :: rest
      when match float_of_string_opt s with Some t -> t > 0.0 | None -> false ->
        go { o with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with traced = t = "1" } rest
    | "--json" :: f :: rest -> go { o with json = Some f } rest
    | "--commit" :: c :: rest -> go { o with commit = c } rest
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 20.0;
      traced = false;
      json = None;
      commit = "unknown";
    }
    args

(* Sockets and traces live under the current directory, one
   subdirectory per process, removed at exit. *)
let with_run_dir f =
  let base = ".bench-e2e" in
  let dir = Filename.concat base (string_of_int (Unix.getpid ())) in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      try Unix.rmdir base with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let run_workload o w =
  let res =
    with_run_dir (fun dir ->
        Workloads.run w ~seed:o.seed ~seconds:o.seconds ~traced:o.traced ~dir)
  in
  let wanted = if o.traced then Catalogue.per_layer else Catalogue.end_to_end in
  let missing =
    List.filter
      (fun (m : Catalogue.metric) -> not (List.mem_assoc m.name res.Workloads.metrics))
      wanted
  in
  let bad =
    List.filter (fun (_, v) -> not (Float.is_finite v)) res.Workloads.metrics
  in
  let errors =
    res.Workloads.errors
    @ List.map (fun (m : Catalogue.metric) -> "metric not measured: " ^ m.name) missing
    @ List.map (fun (n, _) -> "metric not finite: " ^ n) bad
  in
  let correct = errors = [] in
  let metrics =
    List.filter_map
      (fun (m : Catalogue.metric) ->
        match List.assoc_opt m.name res.Workloads.metrics with
        | Some v when Float.is_finite v -> Some (m, v)
        | _ -> None)
      wanted
  in
  List.iter (Printf.printf "# %s: %s\n" w) (res.Workloads.config :: res.Workloads.notes);
  List.iter
    (fun ((m : Catalogue.metric), v) ->
      Printf.printf "%s %s %s %s\n" w m.name (Row.json_float v) m.unit)
    metrics;
  List.iter (fun e -> Printf.eprintf "%s: %s\n" w e) errors;
  let cores = Domain.recommended_domain_count () in
  (match o.json with
  | Some path ->
      Row.append path
        (List.map
           (fun ((m : Catalogue.metric), v) ->
             {
               Row.workload = w;
               layer = Catalogue.layer_of m.name;
               name = res.Workloads.config;
               metric = m.name;
               unit = m.unit;
               value = v;
               seed = o.seed;
               commit = o.commit;
               cores;
               ocaml = Sys.ocaml_version;
             })
           metrics)
  | None -> ());
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct res.Workloads.attempted res.Workloads.failed
    (String.concat ", "
       (List.map
          (fun ((m : Catalogue.metric), v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Row.json_string m.name)
              (Row.json_float v) (Row.json_string m.unit))
          metrics));
  if not correct then exit 1

(* Every workload in its own process, one after the other. *)
let run_all args =
  flush stdout;
  let status =
    List.fold_left
      (fun worst w ->
        let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--workload"; w ]) in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> worst
        | _, _ -> 1)
      0 Workloads.names
  in
  exit status

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "serve-child"; w; dir; trace; timed ] -> (
      match Workloads.serve_spec w with
      | Some spec ->
          Serve.child spec ~dir
            ~trace_path:(if String.equal trace "-" then None else Some trace)
            ~timed:(String.equal timed "1")
      | None -> usage ())
  | [ "setup-child"; w ] -> Workloads.setup_child w
  | "compare" :: (_ :: _ as files) -> exit (Compare.main files)
  | [ "smoke"; benchmark_json ] -> exit (Smoke.main ~benchmark_json)
  | args -> (
      let o = parse args in
      match o.workload with
      | Some w -> run_workload o w
      | None -> run_all args)

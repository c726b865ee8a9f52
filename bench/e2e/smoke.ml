(* [main.exe smoke BENCHMARK.json] (part of [dune runtest]): the
   benchmark's own check.  It prints only what failed.

   - BENCHMARK.json names every metric of the catalogue with its unit;
   - every workload, untraced and traced, runs one short round, exits 0,
     prints exactly its metric set with units and reports correct=true
     (so refinement, zero hammer violations, exact explore state counts
     and atomic histories all held);
   - the explore gate fires: with the planted-unsound reduction
     (SMEC_EXPLORE_CANARY=1) the state count changes and the run must
     exit 1;
   - the timing shim is transparent: [Explore.run] on abd n=3 gives the
     identical result with and without it. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.equal (String.sub s i n) sub || at (i + 1)) in
  at 0

let check_benchmark_json path =
  let text = read_file path in
  List.iter
    (fun (m : Catalogue.metric) ->
      let entry = Printf.sprintf "{\"name\": %S, \"unit\": %S" m.name m.unit in
      if not (contains ~sub:entry text) then fail "%s does not list %s" path entry)
    (Catalogue.end_to_end @ Catalogue.per_layer);
  List.iter
    (fun w ->
      if not (contains ~sub:(Printf.sprintf "{\"name\": %S" w) text) then
        fail "%s does not list workload %s" path w)
    Workloads.names

(* Run this executable on one workload; (exit code, stdout lines).  The
   child's stderr stays visible unless [expect_errors]. *)
let run_child ?(env = [||]) ?(expect_errors = false) args =
  let out = Filename.temp_file ~temp_dir:"." "smoke" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid =
    Unix.create_process_env Sys.executable_name argv
      (Array.append env (Unix.environment ()))
      Unix.stdin fd
      (if expect_errors then fd else Unix.stderr)
  in
  Unix.close fd;
  let code =
    match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _, _ -> 255
  in
  let lines = String.split_on_char '\n' (read_file out) in
  Sys.remove out;
  (code, List.filter (fun l -> not (String.equal l "")) lines)

let check_workload w ~traced =
  let label = Printf.sprintf "%s --trace %d" w (if traced then 1 else 0) in
  let code, lines =
    run_child
      [
        "--workload"; w; "--seed"; "1"; "--seconds"; "0.2";
        "--trace"; (if traced then "1" else "0");
      ]
  in
  if code <> 0 then fail "%s exited %d" label code;
  let wanted = if traced then Catalogue.per_layer else Catalogue.end_to_end in
  let printed =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ w'; name; value; unit ] when String.equal w' w ->
            Option.map (fun _ -> (name, unit)) (float_of_string_opt value)
        | _ -> None)
      lines
  in
  List.iter
    (fun (m : Catalogue.metric) ->
      match List.assoc_opt m.name printed with
      | Some u when String.equal u m.unit -> ()
      | Some u -> fail "%s printed %s in %s, not %s" label m.name u m.unit
      | None -> fail "%s did not print %s" label m.name)
    wanted;
  if List.length printed <> List.length wanted then
    fail "%s printed %d metrics, expected %d" label (List.length printed)
      (List.length wanted);
  match List.rev lines with
  | last :: _ when contains ~sub:"{\"correct\": true, " last -> ()
  | _ -> fail "%s: last line is not a correct result" label

let check_explore_gate () =
  let code, _ =
    run_child ~env:[| "SMEC_EXPLORE_CANARY=1" |] ~expect_errors:true
      [ "--workload"; "explore"; "--seconds"; "0.2"; "--trace"; "0" ]
  in
  if code <> 1 then fail "explore with SMEC_EXPLORE_CANARY=1 exited %d, expected 1" code

let check_shim () =
  let params = Engine.Types.params ~n:3 ~f:1 ~value_len:1 () in
  let algo = Algorithms.Abd.algo in
  let scripts = [ (0, [ Engine.Types.Write "a" ]); (1, [ Engine.Types.Read ]) ] in
  let run a =
    Engine.Explore.run ~domains:2 a (Engine.Config.make a params ~clients:2) ~scripts
  in
  let plain = run algo and timed = run (Shim.timed algo) in
  if plain <> timed then fail "Explore.run differs under the timing shim"

let main ~benchmark_json =
  check_benchmark_json benchmark_json;
  check_shim ();
  List.iter
    (fun w ->
      check_workload w ~traced:false;
      check_workload w ~traced:true)
    Workloads.names;
  check_explore_gate ();
  if !failures > 0 then begin
    Printf.printf "smoke: %d failures\n" !failures;
    1
  end
  else 0

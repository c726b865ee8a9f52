(* The four workloads.  Each runs rounds of a fixed amount of work until
   the measured time reaches [seconds] (at least one round), checks
   every output, and reports end-to-end metrics (untraced run) or
   per-layer metrics (traced run).  Timings are medians over rounds, or
   order statistics over the pooled samples, so a longer run is a
   steadier one. *)

type result = {
  config : string;  (** what ran, one line *)
  notes : string list;  (** sample counts and the like, one line each *)
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * float) list;
}

let names = [ "serve-rep"; "serve-ec"; "hammer"; "explore" ]

(* Derived seeds: distinct per round and per session, fixed by [seed]. *)
let sub_seed seed i = (seed * 7919) + i

(* Run [round i] (returning its result and its measured seconds) until
   the measured total reaches [seconds]. *)
let rounds ~seconds round =
  let rec go i spent acc =
    if i > 0 && spent >= seconds then List.rev acc
    else
      let r, dt = round i in
      go (i + 1) (spent +. dt) (r :: acc)
  in
  go 0 0.0 []

(* Set-up time is the median of this many set-ups per run.  A workload
   without a server is set up in a child: this executable spawned in
   [setup-child] mode builds what the workload needs before its first
   round and prints "ready"; the time from spawn to ready is the set-up
   time, as it is for a serve workload's server. *)
let setup_reps = 9

let spawn_setup w =
  let child, secs = Child.spawn [ "setup-child"; w ] in
  if not (Child.reap child) then failwith ("set-up child failed: " ^ w);
  secs

let median_of f xs = Stats.median (Array.of_list (List.map f xs))
let sum_f f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let sum_i f xs = List.fold_left (fun a x -> a + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Metrics of layers a workload never reaches: counts and rates 0,
   neutral ratios 1. *)
let absent names =
  List.map
    (fun n ->
      if String.equal n "trace.off_speedup" || String.equal n "transport.useful_send_frac"
      then (n, 1.0)
      else (n, 0.0))
    names

let explore_absent =
  absent (List.map (fun s -> "explore." ^ s ^ ".states_per_sec") Catalogue.scopes)

let hammer_absent =
  absent
    (List.map (fun a -> "hammer." ^ a ^ ".execs_per_sec") Faults.Hammer.algo_names
    @ [ "hammer.deliveries_per_exec" ])

let algo_metrics (t : Shim.acc) ~units =
  [
    ("algo.server_ns_per_call", Shim.per_call t.server_ns t.server_calls);
    ("algo.client_ns_per_call", Shim.per_call t.client_ns t.client_calls);
    ("algo.encode_ns_per_call", Shim.per_call t.encode_ns t.encode_calls);
    ("algo.calls_per_unit", ratio (float_of_int (Shim.calls t)) units);
  ]

let add_acc (a : Shim.acc) (b : Shim.acc) : Shim.acc =
  {
    server_ns = a.server_ns + b.server_ns;
    server_calls = a.server_calls + b.server_calls;
    client_ns = a.client_ns + b.client_ns;
    client_calls = a.client_calls + b.client_calls;
    encode_ns = a.encode_ns + b.encode_ns;
    encode_calls = a.encode_calls + b.encode_calls;
  }

let erasure_metrics () =
  let enc, dec = Probes.erasure_mbps () in
  [ ("erasure.encode_mbps", enc); ("erasure.decode_mbps", dec) ]

(* ----- serve-rep / serve-ec ----- *)

let serve_rep =
  {
    Serve.key = "abd-mw";
    params = Engine.Types.params ~n:5 ~f:1 ~k:3 ~delta:8 ~value_len:16 ();
    clients = 8;
    read_pct = 50;
    closed_per_client = 2_000;
    open_rate = 10_000.0;
    open_s = 1.0;
  }

(* delta = clients: CAS servers must keep the symbols of every write a
   reader may still be collecting, or healthy reads starve *)
let serve_ec =
  {
    Serve.key = "cas";
    params = Engine.Types.params ~n:5 ~f:1 ~k:3 ~delta:8 ~value_len:3072 ();
    clients = 8;
    read_pct = 10;
    closed_per_client = 75;
    open_rate = 400.0;
    open_s = 2.0;
  }

let serve_config (s : Serve.spec) =
  let p = s.Serve.params in
  Printf.sprintf
    "%s n=%d f=%d k=%d delta=%d, %d B values, %d%% reads, %d clients; closed %d \
     ops/client, open %.0f ops/s for %.1f s"
    s.Serve.key p.Engine.Types.n p.Engine.Types.f p.Engine.Types.k
    p.Engine.Types.delta p.Engine.Types.value_len s.Serve.read_pct s.Serve.clients
    s.Serve.closed_per_client s.Serve.open_rate s.Serve.open_s

let session_wall (s : Serve.session) = s.Serve.client_proc.Proc.wall_s

let serve_outcome sessions =
  ( sum_i (fun (s : Serve.session) -> s.Serve.invoked) sessions,
    sum_i
      (fun (s : Serve.session) ->
        s.Serve.invoked - s.Serve.client.Transport.Client.completed)
      sessions,
    List.concat_map (fun (s : Serve.session) -> s.Serve.errors) sessions )

let serve_notes opened =
  [
    Printf.sprintf
      "%d latency samples from %d open sessions; %d arrivals due in a last poll \
       interval never invoked, the earliest %.1f ms before the end of its window"
      (sum_i (fun (s : Serve.session) -> Array.length s.Serve.latencies) opened)
      (List.length opened)
      (sum_i (fun (s : Serve.session) -> s.Serve.dropped) opened)
      (1e3
      *. List.fold_left
           (fun m (s : Serve.session) -> Float.max m s.Serve.dropped_tail_s)
           0.0 opened);
  ]

let serve spec ~workload ~seed ~seconds ~traced ~dir =
  let session ~kind ~i ~trace ~timed =
    Serve.session spec ~workload ~dir ~kind ~seed:(sub_seed seed i) ~trace ~timed
  in
  if not traced then begin
    let setups =
      Array.init setup_reps (fun _ -> Serve.setup_once ~workload ~dir)
    in
    (* two closed sessions per open one: a closed session's rate varies
       with where the scheduler puts the two processes, so the median
       needs more of them *)
    let rs =
      rounds ~seconds (fun i ->
          let c1 = session ~kind:Serve.Closed ~i:(3 * i) ~trace:true ~timed:false in
          let o = session ~kind:Serve.Open ~i:((3 * i) + 1) ~trace:true ~timed:false in
          let c2 = session ~kind:Serve.Closed ~i:((3 * i) + 2) ~trace:true ~timed:false in
          (([ c1; c2 ], o), sum_f session_wall [ c1; o; c2 ]))
    in
    let closed = List.concat_map fst rs and opened = List.map snd rs in
    let all = closed @ opened in
    let lat = Array.concat (List.map (fun (s : Serve.session) -> s.Serve.latencies) opened) in
    let attempted, failed, errors = serve_outcome all in
    {
      config = serve_config spec;
      notes = serve_notes opened;
      attempted;
      failed;
      errors;
      metrics =
        [
          ("throughput_per_s", median_of (fun (s : Serve.session) -> s.Serve.ops_per_s) closed);
          ("p50_ms", 1e3 *. Stats.quantile lat 0.5);
          ("p99_ms", 1e3 *. Stats.quantile lat 0.99);
          ("peak_rss_mb", median_of (fun (s : Serve.session) -> s.Serve.server.Serve.rss_mb) all);
          ("setup_s", Stats.median setups);
        ];
    }
  end
  else begin
    (* per round: the closed session timed (A), untimed (B) and untimed
       with the wire trace off (C), all on the same operations, plus a
       timed open session for the waiting figures *)
    let rs =
      rounds ~seconds (fun i ->
          let a = session ~kind:Serve.Closed ~i:(2 * i) ~trace:true ~timed:true in
          let o = session ~kind:Serve.Open ~i:((2 * i) + 1) ~trace:true ~timed:true in
          let b = session ~kind:Serve.Closed ~i:(2 * i) ~trace:true ~timed:false in
          let c = session ~kind:Serve.Closed ~i:(2 * i) ~trace:false ~timed:false in
          ((a, o, b, c), sum_f session_wall [ a; o; b; c ]))
    in
    let a_s = List.map (fun (a, _, _, _) -> a) rs
    and o_s = List.map (fun (_, o, _, _) -> o) rs in
    let ao = a_s @ o_s in
    let all = List.concat_map (fun (a, o, b, c) -> [ a; o; b; c ]) rs in
    let attempted, failed, errors = serve_outcome all in
    let server (s : Serve.session) = s.Serve.server in
    let client_i f l = sum_i (fun (s : Serve.session) -> f s.Serve.client) l in
    let server_i f l = sum_i (fun s -> f (server s).Serve.stats) l in
    let server_f f l = sum_f (fun s -> f (server s).Serve.proc) l in
    let client_f f l = sum_f (fun (s : Serve.session) -> f s.Serve.client_proc) l in
    let both f l = server_f f l +. client_f f l in
    let ops l = float_of_int (client_i (fun c -> c.Transport.Client.completed) l) in
    let per_op x = ratio x (ops a_s) in
    let wait_frac f l =
      1.0 -. ratio (f (fun p -> p.Proc.cpu_s) l) (f (fun p -> p.Proc.wall_s) l)
    in
    let frames =
      client_i (fun c -> c.Transport.Client.frames_out) a_s
      + server_i (fun s -> s.Transport.Server.frames_out) a_s
    and bytes =
      client_i (fun c -> c.Transport.Client.bytes_out) a_s
      + server_i (fun s -> s.Transport.Server.bytes_out) a_s
    in
    let shim =
      List.fold_left
        (fun t (s : Serve.session) ->
          add_acc t (add_acc s.Serve.client_shim (server s).Serve.shim))
        (Shim.zero ()) a_s
    in
    let sends = client_i (fun c -> c.Transport.Client.frames_out) ao
    and retx = client_i (fun c -> c.Transport.Client.retransmits) ao in
    let rate (s : Serve.session) = s.Serve.ops_per_s in
    let median_ratio f = Stats.median (Array.of_list (List.map f rs)) in
    {
      config = serve_config spec;
      notes = serve_notes o_s;
      attempted;
      failed;
      errors;
      metrics =
        [
          ("proc.cpu_us_per_unit", 1e6 *. per_op (both (fun p -> p.Proc.cpu_s) a_s));
          ("proc.alloc_words_per_unit", per_op (both (fun p -> p.Proc.alloc_words) a_s));
          ( "proc.major_gcs_per_kunit",
            1e3 *. per_op (both (fun p -> float_of_int p.Proc.major_gcs) a_s) );
          ("load.wait_frac", wait_frac client_f o_s);
          ("server.wait_frac", wait_frac server_f o_s);
          ( "server.cpu_share",
            ratio (server_f (fun p -> p.Proc.cpu_s) a_s) (both (fun p -> p.Proc.cpu_s) a_s) );
        ]
        @ algo_metrics shim ~units:(ops a_s)
        @ erasure_metrics ()
        @ [
            (* the codec on frames of this workload's mean size (a
               request's or reply's header is 21-25 bytes) *)
            ( "frame.codec_ns_per_frame",
              Probes.frame_codec_ns ~payload:(max 1 ((bytes / max 1 frames) - 21)) );
            ("transport.frames_per_op", per_op (float_of_int frames));
            ("transport.bytes_per_op", per_op (float_of_int bytes));
            ( "transport.useful_send_frac",
              ratio (float_of_int (sends - retx)) (float_of_int sends) );
            ( "transport.dedup_hits_per_kop",
              1e3
              *. ratio
                   (float_of_int (server_i (fun s -> s.Transport.Server.dedup_hits) ao))
                   (ops ao) );
            ( "trace.bytes_per_op",
              per_op (float_of_int (sum_i (fun (s : Serve.session) -> s.Serve.trace_bytes) a_s)) );
            ("trace.off_speedup", median_ratio (fun (_, _, b, c) -> ratio (rate c) (rate b)));
            ( "storage.peak_norm",
              List.fold_left
                (fun m s -> Float.max m (server s).Serve.stats.Transport.Server.peak_norm)
                0.0 a_s );
            ( "checker.ns_per_op",
              ratio
                (float_of_int (sum_i (fun (s : Serve.session) -> s.Serve.check_ns) ao))
                (float_of_int (sum_i (fun (s : Serve.session) -> s.Serve.checked_ops) ao)) );
          ]
        @ explore_absent @ hammer_absent
        @ [ ("bench.trace_overhead", median_ratio (fun (a, _, b, _) -> ratio (rate b) (rate a))) ];
    }
  end

(* ----- hammer ----- *)

(* Executions per campaign slice: one slice is one [Hammer.campaign]
   call on one algorithm, and the latency the workload reports is a
   slice's wall time. *)
let slice_execs = 100

type slice = {
  algo : string;
  execs : int;
  secs : float;
  violations : int;
  deliveries : int;
  peak_norm : float;
  proc : Proc.t;
}

let hammer_slice ~algo ~seed ~traced =
  let t0 = Shim.now_s () in
  let report, proc =
    if traced then
      Proc.measure (fun () ->
          Faults.Hammer.campaign ~execs:slice_execs ~seed ~algos:[ algo ] ())
    else (Faults.Hammer.campaign ~execs:slice_execs ~seed ~algos:[ algo ] (), Proc.zero)
  in
  let secs = Shim.now_s () -. t0 in
  let a = List.hd report.Faults.Hammer.algos in
  {
    algo;
    execs = slice_execs;
    secs;
    violations = List.length a.Faults.Hammer.violations;
    deliveries = a.Faults.Hammer.deliveries;
    peak_norm = a.Faults.Hammer.peak_norm;
    proc;
  }

let hammer_round ~seed ~traced i =
  let slices =
    List.mapi
      (fun j algo -> hammer_slice ~algo ~seed:(sub_seed seed ((i * 8) + j)) ~traced)
      Faults.Hammer.algo_names
  in
  (slices, sum_f (fun s -> s.secs) slices)

let round_rate slices =
  float_of_int (sum_i (fun s -> s.execs) slices) /. sum_f (fun s -> s.secs) slices

let hammer_config =
  Printf.sprintf
    "Faults.Hammer.campaign, arena engine, %s; slices of %d executions"
    (String.concat "/" Faults.Hammer.algo_names)
    slice_execs

let hammer_outcome slices errors =
  let violations = sum_i (fun s -> s.violations) slices in
  ( sum_i (fun s -> s.execs) slices,
    violations,
    (if violations > 0 then [ Printf.sprintf "%d hammer violations" violations ] else [])
    @ errors )

let hammer ~seed ~seconds ~traced =
  if not traced then begin
    let setups = Array.init setup_reps (fun _ -> spawn_setup "hammer") in
    let rs = rounds ~seconds (hammer_round ~seed ~traced:false) in
    let slices = List.concat rs in
    let lat = Array.of_list (List.map (fun s -> 1e3 *. s.secs) slices) in
    let attempted, failed, errors = hammer_outcome slices [] in
    {
      config = hammer_config;
      notes = [ Printf.sprintf "%d slices timed" (Array.length lat) ];
      attempted;
      failed;
      errors;
      metrics =
        [
          ("throughput_per_s", median_of round_rate rs);
          ("p50_ms", Stats.quantile lat 0.5);
          ("p99_ms", Stats.quantile lat 0.99);
          ("peak_rss_mb", Proc.peak_rss_mb ());
          ("setup_s", Stats.median setups);
        ];
    }
  end
  else begin
    (* alternate untraced and traced rounds; the traced ones add a
       process sample around every slice *)
    let rs =
      rounds ~seconds (fun i ->
          let u, du = hammer_round ~seed ~traced:false (2 * i) in
          let t, dt = hammer_round ~seed ~traced:true ((2 * i) + 1) in
          ((u, t), du +. dt))
    in
    let traced_slices = List.concat_map snd rs in
    let all = List.concat_map (fun (u, t) -> u @ t) rs in
    let execs = float_of_int (sum_i (fun s -> s.execs) traced_slices) in
    let probe = Probes.hammer_algorithms ~seed ~execs_per_algo:500 in
    let probe_errors =
      if probe.Probes.invalid > 0 then
        [ Printf.sprintf "%d probe histories failed the checker" probe.Probes.invalid ]
      else []
    in
    let attempted, failed, errors = hammer_outcome all probe_errors in
    let cpu = sum_f (fun s -> s.proc.Proc.cpu_s) traced_slices in
    let wall = sum_f (fun s -> s.proc.Proc.wall_s) traced_slices in
    let per_algo a =
      let mine = List.filter (fun s -> String.equal s.algo a) traced_slices in
      ("hammer." ^ a ^ ".execs_per_sec", round_rate mine)
    in
    {
      config = hammer_config;
      notes = [];
      attempted;
      failed;
      errors;
      metrics =
        [
          ("proc.cpu_us_per_unit", 1e6 *. cpu /. execs);
          ( "proc.alloc_words_per_unit",
            sum_f (fun s -> s.proc.Proc.alloc_words) traced_slices /. execs );
          ( "proc.major_gcs_per_kunit",
            1e3 *. float_of_int (sum_i (fun s -> s.proc.Proc.major_gcs) traced_slices) /. execs );
          ("load.wait_frac", 1.0 -. ratio cpu wall);
          ("server.wait_frac", 0.0);
          ("server.cpu_share", 0.0);
        ]
        @ algo_metrics probe.Probes.totals ~units:(float_of_int probe.Probes.execs)
        @ erasure_metrics ()
        @ [ ("frame.codec_ns_per_frame", Probes.frame_codec_ns ~payload:64) ]
        @ absent
            [
              "transport.frames_per_op";
              "transport.bytes_per_op";
              "transport.useful_send_frac";
              "transport.dedup_hits_per_kop";
              "trace.bytes_per_op";
              "trace.off_speedup";
            ]
        @ [
            ("storage.peak_norm", List.fold_left (fun m s -> Float.max m s.peak_norm) 0.0 all);
            ( "checker.ns_per_op",
              ratio (float_of_int probe.Probes.check_ns) (float_of_int probe.Probes.checked_ops) );
          ]
        @ explore_absent
        @ List.map per_algo Faults.Hammer.algo_names
        @ [
            ( "hammer.deliveries_per_exec",
              float_of_int (sum_i (fun s -> s.deliveries) traced_slices) /. execs );
            ( "bench.trace_overhead",
              ratio
                (median_of (fun (u, _) -> round_rate u) rs)
                (median_of (fun (_, t) -> round_rate t) rs) );
          ];
    }
  end

(* ----- explore ----- *)

type scope = {
  label : string;
  key : string;
  params : Engine.Types.params;
  scripts : (int * Engine.Types.op list) list;
  reduce : Engine.Reduction.t;
  states : int;  (** the exact closed state count *)
}

let w c v = (c, [ Engine.Types.Write v ])
let r c = (c, [ Engine.Types.Read ])

(* the smec explore shapes: k = max 1 (n - 2f), delta 2, 1-byte values *)
let explore_params ~n ~f =
  Engine.Types.params ~n ~f ~k:(max 1 (n - (2 * f))) ~delta:2 ~value_len:1 ()

let scopes =
  [
    {
      label = "abd-n4";
      key = "abd";
      params = explore_params ~n:4 ~f:1;
      scripts = [ w 0 "a"; r 1 ];
      reduce = Engine.Reduction.none;
      states = 366_323;
    };
    {
      label = "cas-n3";
      key = "cas";
      params = explore_params ~n:3 ~f:1;
      scripts = [ w 0 "a"; r 1 ];
      reduce = Engine.Reduction.none;
      states = 200_794;
    };
    {
      label = "abd-n5-2w";
      key = "abd";
      params = explore_params ~n:5 ~f:2;
      scripts = [ w 0 "a"; w 1 "b" ];
      reduce = Engine.Reduction.all;
      states = 15_141;
    };
  ]

let domains = 2
let progress_interval = 250

type scope_run = {
  scope : string;
  states : int;
  secs : float;
  stamps : float list;  (** wall times at each progress report *)
  histories : int;
  ops_checked : int;
  check_ns : int;
  proc : Proc.t;
  errors : string list;
}

let explore_scope ?(timed = false) sc =
  Faults.Hammer.dispatch ~key:sc.key ~canary:false
    {
      Faults.Hammer.use =
        (fun algo ->
          let run_algo = if timed then Shim.timed algo else algo in
          let config =
            Engine.Config.make run_algo sc.params ~clients:(List.length sc.scripts)
          in
          let lock = Mutex.create () in
          let stamps = ref [] in
          let progress _ =
            let t = Shim.now_s () in
            Mutex.protect lock (fun () -> stamps := t :: !stamps)
          in
          let t0 = Shim.now_s () in
          let res, proc =
            Proc.measure (fun () ->
                Engine.Explore.run ~max_states:(2 * sc.states) ~domains
                  ~reduce:sc.reduce ~progress ~progress_interval run_algo config
                  ~scripts:sc.scripts)
          in
          let secs = Shim.now_s () -. t0 in
          let st = res.Engine.Explore.stats in
          let init = Algorithms.Common.initial_value sc.params in
          let checked =
            List.map
              (Probes.check_history ~atomic:true ~init)
              res.Engine.Explore.histories
          in
          let invalid =
            List.length
              (List.filter (fun (v, _, _) -> not (Consistency.Checker.is_valid v)) checked)
          in
          let errors =
            (if st.Engine.Explore.states_explored <> sc.states || st.Engine.Explore.truncated
             then
               [
                 Printf.sprintf "%s: %d states (expected %d, closed=%b)" sc.label
                   st.Engine.Explore.states_explored sc.states
                   (not st.Engine.Explore.truncated);
               ]
             else [])
            @ (match st.Engine.Explore.outcome with
              | Engine.Explore.Deadlock _ -> [ sc.label ^ ": deadlock" ]
              | Engine.Explore.Closed | Engine.Explore.Truncated -> [])
            @
            if invalid > 0 then
              [ Printf.sprintf "%s: %d histories not atomic" sc.label invalid ]
            else []
          in
          {
            scope = sc.label;
            states = st.Engine.Explore.states_explored;
            secs;
            stamps = (t0 :: List.rev !stamps);
            histories = List.length checked;
            ops_checked = sum_i (fun (_, _, n) -> n) checked;
            check_ns = sum_i (fun (_, ns, _) -> ns) checked;
            proc;
            errors;
          });
    }

let explore_round ?timed () =
  let runs = List.map (explore_scope ?timed) scopes in
  (runs, sum_f (fun r -> r.secs) runs)

let round_states_rate runs =
  float_of_int (sum_i (fun r -> r.states) runs) /. sum_f (fun r -> r.secs) runs

(* milliseconds per [progress_interval] states *)
let progress_gaps runs =
  List.concat_map
    (fun r ->
      let a = Array.of_list r.stamps in
      Array.sort Float.compare a;
      List.init (Array.length a - 1) (fun i -> 1e3 *. (a.(i + 1) -. a.(i))))
    runs

let explore_config =
  Printf.sprintf
    "Engine.Explore.run, %d domains, pure engine: %s; every terminal history \
     checked atomic"
    domains
    (String.concat ", "
       (List.map (fun sc -> Printf.sprintf "%s (%d states)" sc.label sc.states) scopes))

let explore_outcome runs =
  ( sum_i (fun r -> r.histories) runs,
    sum_i (fun r -> List.length r.errors) runs,
    List.concat_map (fun r -> r.errors) runs )

let explore ~seconds ~traced =
  if not traced then begin
    let setups = Array.init setup_reps (fun _ -> spawn_setup "explore") in
    let rs = rounds ~seconds (fun _ -> explore_round ()) in
    let runs = List.concat rs in
    let gaps = Array.of_list (progress_gaps runs) in
    let attempted, failed, errors = explore_outcome runs in
    {
      config = explore_config;
      notes = [ Printf.sprintf "%d progress gaps timed" (Array.length gaps) ];
      attempted;
      failed;
      errors;
      metrics =
        [
          ("throughput_per_s", median_of round_states_rate rs);
          ("p50_ms", Stats.quantile gaps 0.5);
          ("p99_ms", Stats.quantile gaps 0.99);
          ("peak_rss_mb", Proc.peak_rss_mb ());
          ("setup_s", Stats.median setups);
        ];
    }
  end
  else begin
    let rs =
      rounds ~seconds (fun _ ->
          let u, du = explore_round () in
          Shim.reset ();
          let t, dt = explore_round ~timed:true () in
          ((u, t, Shim.totals ()), du +. dt))
    in
    let untimed = List.concat_map (fun (u, _, _) -> u) rs in
    let timed = List.concat_map (fun (_, t, _) -> t) rs in
    let shim = List.fold_left (fun a (_, _, s) -> add_acc a s) (Shim.zero ()) rs in
    let states l = float_of_int (sum_i (fun r -> r.states) l) in
    let cpu = sum_f (fun r -> r.proc.Proc.cpu_s) untimed in
    let wall = sum_f (fun r -> r.proc.Proc.wall_s) untimed in
    let attempted, failed, errors = explore_outcome (untimed @ timed) in
    let per_scope label =
      let mine = List.filter (fun r -> String.equal r.scope label) untimed in
      ("explore." ^ label ^ ".states_per_sec", ratio (states mine) (sum_f (fun r -> r.secs) mine))
    in
    {
      config = explore_config;
      notes = [];
      attempted;
      failed;
      errors;
      metrics =
        [
          ("proc.cpu_us_per_unit", 1e6 *. cpu /. states untimed);
          ( "proc.alloc_words_per_unit",
            sum_f (fun r -> r.proc.Proc.alloc_words) untimed /. states untimed );
          ( "proc.major_gcs_per_kunit",
            1e3
            *. float_of_int (sum_i (fun r -> r.proc.Proc.major_gcs) untimed)
            /. states untimed );
          (* both domains count: 1 - CPU / (wall x domains) *)
          ("load.wait_frac", 1.0 -. ratio cpu (wall *. float_of_int domains));
          ("server.wait_frac", 0.0);
          ("server.cpu_share", 0.0);
        ]
        @ algo_metrics shim ~units:(states timed)
        @ erasure_metrics ()
        @ [ ("frame.codec_ns_per_frame", Probes.frame_codec_ns ~payload:64) ]
        @ absent
            [
              "transport.frames_per_op";
              "transport.bytes_per_op";
              "transport.useful_send_frac";
              "transport.dedup_hits_per_kop";
              "trace.bytes_per_op";
              "trace.off_speedup";
              "storage.peak_norm";
            ]
        @ [
            ( "checker.ns_per_op",
              ratio
                (float_of_int (sum_i (fun r -> r.check_ns) untimed))
                (float_of_int (sum_i (fun r -> r.ops_checked) untimed)) );
          ]
        @ List.map (fun sc -> per_scope sc.label) scopes
        @ hammer_absent
        @ [
            ( "bench.trace_overhead",
              ratio (median_of (fun (u, _, _) -> round_states_rate u) rs)
                (median_of (fun (_, t, _) -> round_states_rate t) rs) );
          ];
    }
  end

(* ----- set-up of the workloads without a server ----- *)

let setup_child = function
  | "hammer" ->
      (* the campaign builds one arena configuration per algorithm *)
      ignore (Faults.Hammer.campaign ~execs:1 () : Faults.Hammer.report);
      Child.ready ()
  | "explore" ->
      (* the initial configurations, and one start of the explorer's
         domains and seen-set (on an empty script) *)
      List.iteri
        (fun i sc ->
          Faults.Hammer.dispatch ~key:sc.key ~canary:false
            {
              Faults.Hammer.use =
                (fun algo ->
                  let config =
                    Engine.Config.make algo sc.params ~clients:(List.length sc.scripts)
                  in
                  if i = 0 then
                    ignore
                      (Engine.Explore.run ~domains algo config ~scripts:[]
                        : Engine.Explore.run_result));
            })
        scopes;
      Child.ready ()
  | w -> invalid_arg ("no set-up child for " ^ w)

let run workload ~seed ~seconds ~traced ~dir =
  match workload with
  | "serve-rep" -> serve serve_rep ~workload ~seed ~seconds ~traced ~dir
  | "serve-ec" -> serve serve_ec ~workload ~seed ~seconds ~traced ~dir
  | "hammer" -> hammer ~seed ~seconds ~traced
  | "explore" -> explore ~seconds ~traced
  | other -> invalid_arg ("unknown workload " ^ other)

let serve_spec = function
  | "serve-rep" -> Some serve_rep
  | "serve-ec" -> Some serve_ec
  | _ -> None

(* The serve harness: one spawned server process hosting all n servers
   in [Transport.Server.serve]'s single-threaded select loop, and this
   process as the single load generator, [Transport.Client.run]
   multiplexing the virtual clients over one Unix-domain link per
   server.  No delay is injected, so latency is processor and
   scheduling time only.

   The server is this executable re-executed in [serve-child] mode
   ({!Child}), so its memory high-water mark is its own and not the load
   generator's.  It prints "ready" once every listener is bound
   ([on_ready]); on SIGTERM it stops, and writes its stats, CPU, GC and
   shim figures to its stdout as one marshalled [report].

   Both processes keep the program's wire [Trace] on (unless a session
   asks for it off), and every traced session is certified by
   replaying the two traces through the pure engine
   ([Transport.Refine.run]). *)

type spec = {
  key : string;  (** campaign key of the algorithm *)
  params : Engine.Types.params;
  clients : int;
  read_pct : int;
  closed_per_client : int;  (** closed session: ops per virtual client *)
  open_rate : float;  (** open session: Poisson arrivals per second *)
  open_s : float;  (** open session: arrival window *)
}

type report = {
  stats : Transport.Server.stats;
  proc : Proc.t;
  shim : Shim.acc;
  rss_mb : float;
}

type kind = Closed | Open

type session = {
  invoked : int;
  client : Transport.Client.stats;
  client_proc : Proc.t;
  client_shim : Shim.acc;
  server : report;
  ops_per_s : float;  (** completed / (last response - first invoke) *)
  latencies : float array;
      (** open sessions: seconds from each op's intended arrival to its
          response, in invocation order *)
  dropped : int;  (** open sessions: arrivals never invoked *)
  dropped_tail_s : float;
      (** open sessions: how long before the end of the window the first
          arrival never invoked was due; 0 when none was dropped *)
  trace_bytes : int;
  checked_ops : int;  (** operations in the atomicity-checked history *)
  check_ns : int;  (** time the checker took on it *)
  errors : string list;  (** empty when every check passed *)
}

let with_algo spec (u : _ Faults.Hammer.algo_user) =
  Faults.Hammer.dispatch ~key:spec.key ~canary:false u

let addrs spec ~dir =
  Array.init spec.params.Engine.Types.n (fun i ->
      Transport.Conn.Uds (Filename.concat dir (Printf.sprintf "s%d.sock" i)))

(* ----- server side ----- *)

let child spec ~dir ~trace_path ~timed =
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let trace = Option.map Transport.Trace.open_writer trace_path in
  Shim.reset ();
  let before = Proc.sample () in
  let stats =
    with_algo spec
      {
        use =
          (fun algo ->
            let algo = if timed then Shim.timed algo else algo in
            Transport.Server.serve algo spec.params ~algo_key:spec.key
              ~addrs:(addrs spec ~dir) ~clients:spec.clients ?trace
              ~stop:(fun () -> !stop)
              ~on_ready:Child.ready ());
      }
  in
  Option.iter Transport.Trace.close trace;
  let report =
    {
      stats;
      proc = Proc.diff ~before ~after:(Proc.sample ());
      shim = Shim.totals ();
      rss_mb = Proc.peak_rss_mb ();
    }
  in
  Marshal.to_channel stdout report [];
  flush stdout

let spawn ~workload ~dir ~trace_path ~timed =
  Child.spawn
    [
      "serve-child";
      workload;
      dir;
      Option.value trace_path ~default:"-";
      (if timed then "1" else "0");
    ]

(* Stop the server and collect its report. *)
let finish (h : Child.t) =
  Unix.kill h.Child.pid Sys.sigterm;
  match
    Child.wait_readable h ~timeout_s:30.0 "shutdown";
    (Marshal.from_channel h.Child.ic : report)
  with
  | report -> if Child.reap h then report else failwith "serve: server process failed"
  | exception e ->
      Child.abandon h;
      raise e

(* Set-up only: spawn, wait for the listeners, stop. *)
let setup_once ~workload ~dir =
  let h, setup_s = spawn ~workload ~dir ~trace_path:None ~timed:false in
  ignore (finish h : report);
  setup_s

(* ----- load side ----- *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let check_prefix = 1_000

(* The longest gap between two polls of the client's arrival source:
   [Transport.Client.run]'s 20 ms select timeout, plus 10 ms for one pass
   of its loop and a late wake-up on a busy host *)
let poll_s = 0.03

(* The first [ops] invocations of the load process' trace and the
   responses logged before the next one, in trace order, which is
   real-time order: event times are trace positions. *)
let history_prefix ~ops events =
  let rec go time invs acc = function
    | [] -> List.rev acc
    | Transport.Trace.Inv { client; op_id; op } :: rest ->
        if invs = ops then List.rev acc
        else
          go (time + 1) (invs + 1)
            (Engine.Types.Invoke { op_id; client; op; time } :: acc)
            rest
    | Transport.Trace.Res { client; op_id; response } :: rest ->
        go (time + 1) invs
          (Engine.Types.Respond { op_id; client; response; time } :: acc)
          rest
    | (Transport.Trace.Apply _ | Transport.Trace.Del _) :: rest ->
        go time invs acc rest
  in
  go 0 0 [] events

(* One session: a fresh server, one [Client.run], the refinement
   replay, and the correctness checks. *)
let session spec ~workload ~dir ~kind ~seed ~trace ~timed =
  let value_len = spec.params.Engine.Types.value_len in
  let strace = Filename.concat dir "server.trace"
  and ctrace = Filename.concat dir "client.trace" in
  let source, issued, offsets =
    match kind with
    | Closed ->
        let gen =
          Workload.Open_loop.make ~rate:1.0 ~read_pct:spec.read_pct ~value_len
            ~seed
        in
        let scripts =
          Array.init spec.clients (fun _ ->
              List.init spec.closed_per_client (fun _ ->
                  snd (Workload.Open_loop.next gen)))
        in
        ( Transport.Client.Script scripts,
          spec.clients * spec.closed_per_client,
          Float.Array.make 0 0.0 )
    | Open ->
        let mk () =
          Workload.Open_loop.make ~rate:spec.open_rate ~read_pct:spec.read_pct
            ~value_len ~seed
        in
        (* the same schedule the client will draw: its offsets are the
           intended arrival times *)
        let probe = mk () in
        let rec offsets acc =
          let off, _ = Workload.Open_loop.next probe in
          if off <= spec.open_s then offsets (off :: acc) else List.rev acc
        in
        let offs = Float.Array.of_list (offsets []) in
        ( Transport.Client.Load { gen = mk (); duration_s = spec.open_s },
          Float.Array.length offs,
          offs )
  in
  let trace_path p = if trace then Some p else None in
  let h, _ = spawn ~workload ~dir ~trace_path:(trace_path strace) ~timed in
  let lat = Shim.create_lat ~clients:spec.clients ~ops:issued in
  let cw = Option.map Transport.Trace.open_writer (trace_path ctrace) in
  Shim.reset ();
  let (client, t_call), client_proc =
    match
      with_algo spec
        {
          use =
            (fun algo ->
              let algo = if timed then Shim.timed algo else algo in
              let algo = Shim.with_latency lat algo in
              Proc.measure (fun () ->
                  let t_call = Shim.now_s () in
                  ( Transport.Client.run algo spec.params
                      ~addrs:(addrs spec ~dir) ~clients:spec.clients ~source
                      ~seed ~max_wall_s:120.0 ?trace:cw (),
                    t_call )));
        }
    with
    | r -> r
    | exception e ->
        Child.abandon h;
        raise e
  in
  let client_shim = Shim.totals () in
  Option.iter Transport.Trace.close cw;
  let server = finish h in
  let errors = ref [] in
  let check ok msg = if not ok then errors := msg :: !errors in
  let invoked = client.Transport.Client.invoked in
  (* a closed session invokes its whole script.  The open-loop source
     invokes arrivals in order and stops at the end of its window, so
     those due after its last poll, within [poll_s] of the end, may never
     be invoked; every earlier one must be.  Dropped arrivals are not
     operations of the system: they are reported with the sample counts,
     not as failed *)
  let due =
    match kind with
    | Closed -> issued
    | Open ->
        Float.Array.fold_left
          (fun n off -> if off <= spec.open_s -. poll_s then n + 1 else n)
          0 offsets
  in
  check
    (due <= invoked && invoked <= issued)
    (Printf.sprintf "%d operations invoked, %d issued, %d due before the last poll"
       invoked issued due);
  check
    (client.Transport.Client.completed = invoked)
    (Printf.sprintf "%d of %d operations completed"
       client.Transport.Client.completed invoked);
  check
    (client.Transport.Client.starved = 0
    && client.Transport.Client.late_completions = 0)
    (Printf.sprintf "%d starved, %d late" client.Transport.Client.starved
       client.Transport.Client.late_completions);
  let done_at = Float.Array.sub lat.Shim.done_at 0 (min invoked issued) in
  check
    (Float.Array.for_all (fun t -> not (Float.is_nan t)) done_at)
    "a response was never observed";
  let trace_bytes = file_size strace + file_size ctrace in
  let checked_ops, check_ns =
    if not trace then (0, 0)
    else begin
      let _, server_events = Transport.Trace.load strace in
      let _, client_events = Transport.Trace.load ctrace in
      let r =
        with_algo spec
          {
            use =
              (fun algo ->
                Transport.Refine.run algo spec.params ~clients:spec.clients
                  ~server_events ~client_streams:[ client_events ]);
          }
      in
      check
        (r.Transport.Refine.ok && r.Transport.Refine.bits_mismatches = 0
        && r.Transport.Refine.completed_ops = invoked)
        (Format.asprintf "refinement failed: %a" Transport.Refine.pp_report r);
      (* the load process' invocation/response order is the observed
         history, so its prefixes must be atomic; the checker is
         superlinear, so only a prefix is checked *)
      let v, ns, ops =
        Probes.check_history ~atomic:true
          ~init:(Algorithms.Common.initial_value spec.params)
          (history_prefix ~ops:check_prefix client_events)
      in
      (match v with
      | Consistency.Checker.Valid -> ()
      | Consistency.Checker.Invalid why -> check false ("history not atomic: " ^ why));
      (ops, ns)
    end
  in
  remove_quietly strace;
  remove_quietly ctrace;
  let last = Float.Array.fold_left Float.max neg_infinity done_at in
  let ops_per_s =
    float_of_int client.Transport.Client.completed
    /. (last -. lat.Shim.first_invoke)
  in
  let latencies =
    match kind with
    | Closed -> [||]
    | Open ->
        Array.init (Float.Array.length done_at) (fun i ->
            Float.Array.get done_at i -. (t_call +. Float.Array.get offsets i))
  in
  {
    invoked;
    client;
    client_proc;
    client_shim;
    server;
    ops_per_s;
    latencies;
    dropped = max 0 (issued - invoked);
    dropped_tail_s =
      (if kind = Open && invoked < issued then
         spec.open_s -. Float.Array.get offsets invoked
       else 0.0);
    trace_bytes;
    checked_ops;
    check_ns;
    errors = List.rev !errors;
  }

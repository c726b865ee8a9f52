(* Layer probes for traced runs: short timed loops over a layer's public
   functions on inputs shaped like the workload's, for the layers a
   workload reaches only through code the benchmark cannot wrap. *)

(* Run [f] (one call does [work] units) repeatedly for eleven slices of
   20 ms after a warm-up call; the median of the slices' units per
   second. *)
let rate ~work f =
  f ();
  let slice () =
    let t0 = Shim.now_s () in
    let reps = ref 0 in
    let dt = ref 0.0 in
    while !dt < 0.02 do
      f ();
      incr reps;
      dt := Shim.now_s () -. t0
    done;
    float_of_int (work * !reps) /. !dt
  in
  Stats.median (Array.init 11 (fun _ -> slice ()))

(* [Frame.encode] plus [Frame.Decoder] on request/reply pairs carrying
   [payload] bytes; nanoseconds per frame. *)
let frame_codec_ns ~payload =
  let body = String.make payload 'p' in
  let frames =
    [|
      Transport.Frame.Req { client = 3; seq = 1_000; ack = 999; payload = body };
      Transport.Frame.Reply
        { client = 3; server = 2; seq = 1_000; req_applied = 1_000; payload = body };
    |]
  in
  let batch = 64 in
  let buf = Buffer.create (batch * (payload + 64)) in
  let per_s =
    rate ~work:(batch * Array.length frames) (fun () ->
        Buffer.clear buf;
        for _ = 1 to batch do
          Array.iter (Transport.Frame.encode_into buf) frames
        done;
        let d = Transport.Frame.Decoder.create () in
        Transport.Frame.Decoder.feed_string d (Buffer.contents buf);
        let rec drain k =
          match Transport.Frame.Decoder.next d with
          | Some (Ok _) -> drain (k + 1)
          | Some (Error e) ->
              failwith ("frame probe: " ^ Transport.Frame.error_to_string e)
          | None -> k
        in
        if drain 0 <> batch * Array.length frames then
          failwith "frame probe: decoder lost frames")
  in
  1e9 /. per_s

(* The erasure kernels at the serve-ec shape: (5,3), 1 KiB shards.
   Payload MB/s for encode and for decode from the last k symbols. *)
let erasure_mbps () =
  let n = 5 and k = 3 and shard = 1024 in
  let c = Erasure.create ~n ~k in
  let value_len = k * shard in
  let value = String.init value_len (fun i -> Char.chr ((i * 131) land 0xff)) in
  let syms = Erasure.encode c value in
  let survivors = List.init k (fun i -> (n - k + i, syms.(n - k + i))) in
  if Erasure.decode c ~value_len survivors <> Some value then
    failwith "erasure probe: decode mismatch";
  let enc = rate ~work:value_len (fun () -> ignore (Erasure.encode c value)) in
  let dec =
    rate ~work:value_len (fun () ->
        ignore (Erasure.decode c ~value_len survivors))
  in
  (enc /. 1e6, dec /. 1e6)

(* Atomicity (or regularity) check of one history, timed.  Returns the
   verdict and the elapsed nanoseconds. *)
let check_history ~atomic ~init events =
  let h = Consistency.History.of_events events in
  let t0 = Shim.now_ns () in
  let v =
    if atomic then Consistency.Checker.atomic ~init h
    else Consistency.Checker.regular ~init h
  in
  (v, Shim.now_ns () - t0, List.length h)

type algo_probe = {
  execs : int;
  checked_ops : int;
  check_ns : int;
  invalid : int;
  totals : Shim.acc;
}

(* The five hammer algorithms at the hammer campaign's shapes, driven by
   the seeded scheduler through the timed shim, and every history
   checked.  The hammer campaign builds its algorithm records
   internally, so its transition and checker costs are measured here. *)
let hammer_algorithms ~seed ~execs_per_algo =
  let shapes =
    [
      ("abd", 3, 1, 1, 1, 2, true);
      ("abd-mw", 3, 1, 1, 2, 2, true);
      ("cas", 4, 1, 2, 2, 2, true);
      ("gossip-rep", 3, 1, 1, 1, 2, false);
      ("awe", 4, 1, 2, 2, 2, true);
    ]
  in
  Shim.reset ();
  let checked_ops = ref 0 and check_ns = ref 0 and invalid = ref 0 in
  List.iter
    (fun (key, n, f, k, writers, readers, atomic) ->
      Faults.Hammer.dispatch ~key ~canary:false
        {
          Faults.Hammer.use =
            (fun algo ->
              let params = Engine.Types.params ~n ~f ~k ~delta:2 ~value_len:8 () in
              let init = Algorithms.Common.initial_value params in
              let timed = Shim.timed algo in
              for i = 1 to execs_per_algo do
                let values =
                  Workload.unique_values ~count:(2 * writers) ~len:8
                    ~seed:(seed + i)
                in
                let scripts =
                  Workload.mixed_scripts ~writers ~readers ~values
                    ~reads_per_reader:2
                in
                let c =
                  Engine.Config.make timed params ~clients:(writers + readers)
                in
                (* the campaign samples storage after every step *)
                let observer = Storage.peak_observer timed (Storage.create_peak ()) in
                let c =
                  Workload.run_scripts ~observer timed c scripts
                    ~seed:((seed * 7919) + i)
                in
                let v, ns, ops =
                  check_history ~atomic ~init (Engine.Config.history c)
                in
                check_ns := !check_ns + ns;
                checked_ops := !checked_ops + ops;
                if not (Consistency.Checker.is_valid v) then incr invalid
              done);
        })
    shapes;
  {
    execs = 5 * execs_per_algo;
    checked_ops = !checked_ops;
    check_ns = !check_ns;
    invalid = !invalid;
    totals = Shim.totals ();
  }

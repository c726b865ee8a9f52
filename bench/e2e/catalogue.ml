(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json lists the same names; the smoke check holds the two
   together.  Every workload reports every metric of the set it runs
   (end-to-end untraced, per-layer traced); a per-layer count or ratio
   of a layer the workload never reaches is reported as 0 (1 for the
   ratios whose neutral value is 1), and README.md says which. *)

type metric = {
  name : string;
  unit : string;
  better : string;
  bound : float;
      (** end-to-end only: the share of the baseline median by which the
          metric may worsen before a change counts as a regression *)
}

let m ?(bound = nan) name unit better = { name; unit; better; bound }

let end_to_end =
  [
    m "throughput_per_s" "1/s" "higher" ~bound:0.15;
    m "p50_ms" "ms" "lower" ~bound:0.1;
    m "p99_ms" "ms" "lower" ~bound:0.15;
    m "peak_rss_mb" "MB" "lower" ~bound:0.2;
    m "setup_s" "s" "lower" ~bound:0.25;
  ]

let scopes = [ "abd-n4"; "cas-n3"; "abd-n5-2w" ]

let per_layer =
  [
    m "proc.cpu_us_per_unit" "us" "lower";
    m "proc.alloc_words_per_unit" "words" "lower";
    m "proc.major_gcs_per_kunit" "count" "lower";
    m "load.wait_frac" "frac" "lower";
    m "server.wait_frac" "frac" "lower";
    m "server.cpu_share" "frac" "lower";
    m "algo.server_ns_per_call" "ns" "lower";
    m "algo.client_ns_per_call" "ns" "lower";
    m "algo.encode_ns_per_call" "ns" "lower";
    m "algo.calls_per_unit" "count" "lower";
    m "erasure.encode_mbps" "MB/s" "higher";
    m "erasure.decode_mbps" "MB/s" "higher";
    m "frame.codec_ns_per_frame" "ns" "lower";
    m "transport.frames_per_op" "count" "lower";
    m "transport.bytes_per_op" "B" "lower";
    m "transport.useful_send_frac" "frac" "higher";
    m "transport.dedup_hits_per_kop" "count" "lower";
    m "trace.bytes_per_op" "B" "lower";
    m "trace.off_speedup" "x" "lower";
    m "storage.peak_norm" "x" "lower";
    m "checker.ns_per_op" "ns" "lower";
  ]
  @ List.map (fun s -> m ("explore." ^ s ^ ".states_per_sec") "1/s" "higher") scopes
  @ List.map
      (fun a -> m ("hammer." ^ a ^ ".execs_per_sec") "1/s" "higher")
      Faults.Hammer.algo_names
  @ [
      m "hammer.deliveries_per_exec" "count" "lower";
      m "bench.trace_overhead" "x" "lower";
    ]

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> "e2e"

let find name =
  List.find_opt (fun m -> String.equal m.name name) (end_to_end @ per_layer)

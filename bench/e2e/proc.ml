(* Process-level figures: CPU time, allocation and collections from
   [Unix.times] and [Gc.quick_stat], wall time on the shim's monotonic
   clock, and the resident-set high-water mark from /proc. *)

type t = {
  wall_s : float;
  cpu_s : float;
  alloc_words : float;
  major_gcs : int;
}

let sample () =
  let t = Unix.times () in
  let g = Gc.quick_stat () in
  {
    wall_s = Shim.now_s ();
    cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime;
    alloc_words = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words;
    major_gcs = g.Gc.major_collections;
  }

let diff ~before ~after =
  {
    wall_s = after.wall_s -. before.wall_s;
    cpu_s = after.cpu_s -. before.cpu_s;
    alloc_words = after.alloc_words -. before.alloc_words;
    major_gcs = after.major_gcs - before.major_gcs;
  }

let zero = { wall_s = 0.0; cpu_s = 0.0; alloc_words = 0.0; major_gcs = 0 }

let measure f =
  let before = sample () in
  let r = f () in
  (r, diff ~before ~after:(sample ()))

(* VmHWM of this process in MiB; [nan] where /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
            then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Child processes of the benchmark: this executable re-executed in one
   of its internal modes.  A child prints "ready" on its stdout once it
   has set itself up; whatever it prints afterwards is its report. *)

type t = { pid : int; out : Unix.file_descr; ic : in_channel }

let wait_readable t ~timeout_s what =
  match Unix.select [ t.out ] [] [] timeout_s with
  | [], _, _ -> failwith (Printf.sprintf "child %s timed out" what)
  | _ -> ()

(* Reap the child; [true] when it exited with status 0. *)
let reap t =
  let _, status = Unix.waitpid [] t.pid in
  close_in t.ic;
  match status with Unix.WEXITED 0 -> true | _ -> false

let abandon t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap t : bool)

(* Spawn and wait for "ready"; returns the child and the seconds from
   spawn to ready, its set-up time. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let t0 = Shim.now_s () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let t = { pid; out = r; ic = Unix.in_channel_of_descr r } in
  match
    wait_readable t ~timeout_s:30.0 "start-up";
    input_line t.ic
  with
  | "ready" -> (t, Shim.now_s () -. t0)
  | line ->
      abandon t;
      failwith (Printf.sprintf "child printed %S, not ready" line)
  | exception (End_of_file | Failure _ as e) ->
      abandon t;
      raise e

let ready () =
  print_string "ready\n";
  flush stdout

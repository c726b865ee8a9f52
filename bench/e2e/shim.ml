(* Measurement wrappers around an algorithm's transition record.

   The benchmark measures the algorithms layer from outside: [timed]
   returns the same record with every transition, storage and encoding
   function wrapped in a monotonic-clock timer, so a caller (the wire
   runtime, the explorer) runs unchanged code while the wrapper counts
   calls and nanoseconds.  Accumulators are per domain (the explorer
   calls the record from several domains at once) and summed on demand.

   [with_latency] is the lighter wrapper every serve session uses: it
   notes which invocation each client is running and when the response
   arrived, which is all the end-to-end latency and throughput figures
   need. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

type acc = {
  mutable server_ns : int;
  mutable server_calls : int;
  mutable client_ns : int;
  mutable client_calls : int;
  mutable encode_ns : int;
      (** canonical encodings and storage bits: the accounting functions *)
  mutable encode_calls : int;
}

let zero () =
  {
    server_ns = 0;
    server_calls = 0;
    client_ns = 0;
    client_calls = 0;
    encode_ns = 0;
    encode_calls = 0;
  }

let lock = Mutex.create ()
let registry : acc list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let a = zero () in
      Mutex.protect lock (fun () -> registry := a :: !registry);
      a)

(* Sum over every domain that ever used the shim.  Call it only while
   no other domain is running timed code. *)
let totals () =
  Mutex.protect lock (fun () ->
      List.fold_left
        (fun t a ->
          {
            server_ns = t.server_ns + a.server_ns;
            server_calls = t.server_calls + a.server_calls;
            client_ns = t.client_ns + a.client_ns;
            client_calls = t.client_calls + a.client_calls;
            encode_ns = t.encode_ns + a.encode_ns;
            encode_calls = t.encode_calls + a.encode_calls;
          })
        (zero ()) !registry)

let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun a ->
          a.server_ns <- 0;
          a.server_calls <- 0;
          a.client_ns <- 0;
          a.client_calls <- 0;
          a.encode_ns <- 0;
          a.encode_calls <- 0)
        !registry)

let calls t = t.server_calls + t.client_calls + t.encode_calls

let per_call ns calls =
  if calls = 0 then 0.0 else float_of_int ns /. float_of_int calls

let timed (algo : ('ss, 'cs, 'm) Engine.Types.algo) :
    ('ss, 'cs, 'm) Engine.Types.algo =
  let encode f x =
    let a = Domain.DLS.get key in
    let t0 = now_ns () in
    let r = f x in
    a.encode_ns <- a.encode_ns + (now_ns () - t0);
    a.encode_calls <- a.encode_calls + 1;
    r
  in
  {
    algo with
    on_server_msg =
      (fun p ~me ss ~src m ->
        let a = Domain.DLS.get key in
        let t0 = now_ns () in
        let r = algo.on_server_msg p ~me ss ~src m in
        a.server_ns <- a.server_ns + (now_ns () - t0);
        a.server_calls <- a.server_calls + 1;
        r);
    on_invoke =
      (fun p ~me cs op ->
        let a = Domain.DLS.get key in
        let t0 = now_ns () in
        let r = algo.on_invoke p ~me cs op in
        a.client_ns <- a.client_ns + (now_ns () - t0);
        a.client_calls <- a.client_calls + 1;
        r);
    on_client_msg =
      (fun p ~me cs ~src m ->
        let a = Domain.DLS.get key in
        let t0 = now_ns () in
        let r = algo.on_client_msg p ~me cs ~src m in
        a.client_ns <- a.client_ns + (now_ns () - t0);
        a.client_calls <- a.client_calls + 1;
        r);
    server_bits = (fun p ss -> encode (algo.server_bits p) ss);
    encode_server = encode algo.encode_server;
    encode_client = (fun relab cs -> encode (algo.encode_client relab) cs);
    encode_msg = encode algo.encode_msg;
  }

(* Invocation [i] of a session is the [i]-th operation the load
   generator started; [done_at.(i)] is when its response was applied
   (seconds on [now_s]'s clock, [nan] while pending). *)
type lat = {
  current : int array;  (** wire client id -> running invocation *)
  mutable invoked : int;
  mutable first_invoke : float;
  done_at : Float.Array.t;
}

let create_lat ~clients ~ops =
  {
    current = Array.make clients (-1);
    invoked = 0;
    first_invoke = nan;
    done_at = Float.Array.make ops nan;
  }

let with_latency lat (algo : ('ss, 'cs, 'm) Engine.Types.algo) :
    ('ss, 'cs, 'm) Engine.Types.algo =
  {
    algo with
    on_invoke =
      (fun p ~me cs op ->
        if lat.invoked = 0 then lat.first_invoke <- now_s ();
        lat.current.(me) <- lat.invoked;
        lat.invoked <- lat.invoked + 1;
        algo.on_invoke p ~me cs op);
    on_client_msg =
      (fun p ~me cs ~src m ->
        let ((_, _, resp) as r) = algo.on_client_msg p ~me cs ~src m in
        (match resp with
        | Some _ ->
            let i = lat.current.(me) in
            if i >= 0 && i < Float.Array.length lat.done_at then
              Float.Array.set lat.done_at i (now_s ())
        | None -> ());
        r);
  }

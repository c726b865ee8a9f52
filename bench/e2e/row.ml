(* The one row schema every benchmark result is written in, and its
   emitter and reader.  A row is a flat JSON object on one line:

     {"workload": "serve-rep", "layer": "e2e", "name": "abd-mw n=5 f=1",
      "metric": "throughput_per_s", "unit": "1/s", "value": 38412.7,
      "seed": 3, "commit": "514a1f9", "cores": 2, "ocaml": "5.1.1"}

   [layer] is "e2e" for an end-to-end metric and the layer's name
   otherwise; [name] describes what was run. *)

type t = {
  workload : string;
  layer : string;
  name : string;
  metric : string;
  unit : string;
  value : float;
  seed : int;
  commit : string;
  cores : int;
  ocaml : string;
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest decimal that reads back as the same float: every digit the
   measurement has, none it does not. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if Float.equal (float_of_string s) v then s else Printf.sprintf "%.17g" v

let to_json r =
  Printf.sprintf
    "{\"workload\": %s, \"layer\": %s, \"name\": %s, \"metric\": %s, \"unit\": \
     %s, \"value\": %s, \"seed\": %d, \"commit\": %s, \"cores\": %d, \"ocaml\": \
     %s}"
    (json_string r.workload) (json_string r.layer) (json_string r.name)
    (json_string r.metric) (json_string r.unit) (json_float r.value) r.seed
    (json_string r.commit) r.cores (json_string r.ocaml)

let append path rows =
  let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
  List.iter (fun r -> output_string oc (to_json r ^ "\n")) rows;
  close_out oc

(* ----- reading: flat objects of strings and numbers ----- *)

exception Bad of string

let parse_object line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\r' | '\n' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then raise (Bad (Printf.sprintf "expected %C at %d" c !pos));
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      let c = line.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then raise (Bad "bad escape");
          let e = line.[!pos] in
          incr pos;
          (match e with
          | 'u' ->
              if !pos + 4 > n then raise (Bad "bad \\u escape");
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub line !pos 4) land 0xff));
              pos := !pos + 4
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let value () =
    skip ();
    if peek () = '"' then `S (str ())
    else begin
      let start = !pos in
      while
        !pos < n
        && match line.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr pos
      done;
      match float_of_string_opt (String.sub line start (!pos - start)) with
      | Some v -> `F v
      | None -> raise (Bad (Printf.sprintf "bad value at %d" start))
    end
  in
  expect '{';
  let fields = ref [] in
  skip ();
  if peek () = '}' then incr pos
  else begin
    let continue = ref true in
    while !continue do
      let k = str () in
      expect ':';
      fields := (k, value ()) :: !fields;
      skip ();
      match peek () with
      | ',' -> incr pos
      | '}' ->
          incr pos;
          continue := false
      | _ -> raise (Bad (Printf.sprintf "expected , or } at %d" !pos))
    done
  end;
  !fields

let of_json line =
  let fields = parse_object line in
  let find k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> raise (Bad ("missing field " ^ k))
  in
  let s k = match find k with `S s -> s | `F _ -> raise (Bad (k ^ ": not a string")) in
  let f k = match find k with `F v -> v | `S _ -> raise (Bad (k ^ ": not a number")) in
  {
    workload = s "workload";
    layer = s "layer";
    name = s "name";
    metric = s "metric";
    unit = s "unit";
    value = f "value";
    seed = int_of_float (f "seed");
    commit = s "commit";
    cores = int_of_float (f "cores");
    ocaml = s "ocaml";
  }

(* Rows of a file, in order; blank lines are skipped.
   @raise Bad (with the file and line) on a malformed row. *)
let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go (lineno + 1) acc
        | line -> (
            match of_json line with
            | r -> go (lineno + 1) (r :: acc)
            | exception Bad msg ->
                raise (Bad (Printf.sprintf "%s:%d: %s" path lineno msg)))
      in
      go 1 [])

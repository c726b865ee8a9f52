(* [main.exe compare RUN.json...]: group result rows by commit (the
   first commit seen is the baseline) and, for every workload x metric
   pair, print each side's median and quartiles over its runs, and for
   each later commit the change against the baseline, the fraction of
   pairs it wins (the i-th run of each side form a pair) and a verdict:

   - unresolved: the baseline's own spread (quartile distance over
     median) exceeds the metric's bound, and not every run of the
     change beats every baseline run;
   - regression: the median is worse by more than the bound;
   - gain: the change wins at least 9 of 10 pairs and the medians differ
     by more than the baseline's quartile distance;
   - worse: the same rule with the pairs lost, for a slowdown the runs
     resolve but that stays within the bound;
   - same: none of these.

   Per-layer metrics have no bound: their spread and pair wins are
   printed, and "gain"/"same" judged by the same pair rule. *)

type side = { commit : string; values : float array }

let better (m : Catalogue.metric option) a b =
  match m with
  | Some { Catalogue.better = "lower"; _ } -> a < b
  | Some _ | None -> a > b

let verdict metric ~base ~cand =
  let q1, _, q3 = Stats.quartiles base.values in
  let med_b = Stats.median base.values and med_c = Stats.median cand.values in
  let bound = match metric with Some m -> m.Catalogue.bound | None -> nan in
  let spread = (q3 -. q1) /. Float.abs med_b in
  let pairs = min (Array.length base.values) (Array.length cand.values) in
  let wins = ref 0 and losses = ref 0 in
  for i = 0 to pairs - 1 do
    if better metric cand.values.(i) base.values.(i) then incr wins
    else if better metric base.values.(i) cand.values.(i) then incr losses
  done;
  let resolved n =
    pairs > 0
    && float_of_int n >= 0.9 *. float_of_int pairs
    && Float.abs (med_c -. med_b) > q3 -. q1
  in
  let worse_by =
    if better metric med_b med_c then Float.abs (med_c -. med_b) /. Float.abs med_b
    else 0.0
  in
  let dominates =
    Array.for_all (fun c -> Array.for_all (fun b -> better metric c b) base.values)
      cand.values
  in
  let v =
    if Float.is_finite bound && spread > bound && not dominates then "unresolved"
    else if Float.is_finite bound && worse_by > bound then "regression"
    else if resolved !wins then "gain"
    else if resolved !losses then "worse"
    else "same"
  in
  Printf.sprintf "%+.2f%% wins %d/%d %s"
    (100.0 *. (med_c -. med_b) /. Float.abs med_b)
    !wins pairs v

let summary s =
  let q1, _, q3 = Stats.quartiles s.values in
  let med = Stats.median s.values in
  Printf.sprintf "%-10s n=%-3d median %-11.6g q1 %-11.6g q3 %-11.6g spread %5.1f%%"
    s.commit (Array.length s.values) med q1 q3
    (100.0 *. (q3 -. q1) /. Float.abs med)

let main files =
  match List.concat_map Row.load files with
  | exception Row.Bad msg ->
      prerr_endline ("compare: " ^ msg);
      2
  | exception Sys_error msg ->
      prerr_endline ("compare: " ^ msg);
      2
  | rows ->
      let first_seen key_of =
        List.fold_left
          (fun acc r -> if List.mem (key_of r) acc then acc else acc @ [ key_of r ])
          [] rows
      in
      let commits = first_seen (fun r -> r.Row.commit) in
      let pairs = first_seen (fun r -> (r.Row.workload, r.Row.metric)) in
      List.iter
        (fun (workload, metric) ->
          let info = Catalogue.find metric in
          let sides =
            List.filter_map
              (fun commit ->
                let values =
                  List.filter_map
                    (fun r ->
                      if
                        String.equal r.Row.commit commit
                        && String.equal r.Row.workload workload
                        && String.equal r.Row.metric metric
                      then Some r.Row.value
                      else None)
                    rows
                in
                match values with
                | [] -> None
                | _ -> Some { commit; values = Array.of_list values })
              commits
          in
          let bound =
            match info with
            | Some m when Float.is_finite m.Catalogue.bound ->
                Printf.sprintf " (bound %.0f%%)" (100.0 *. m.Catalogue.bound)
            | _ -> ""
          in
          Printf.printf "%s %s%s\n" workload metric bound;
          match sides with
          | [] -> ()
          | base :: rest ->
              let q1, _, q3 = Stats.quartiles base.values in
              let med = Stats.median base.values in
              let steady =
                match info with
                | Some m when Float.is_finite m.Catalogue.bound ->
                    if (q3 -. q1) /. Float.abs med > m.Catalogue.bound then
                      "  unresolved: spread exceeds the bound"
                    else ""
                | _ -> ""
              in
              Printf.printf "  %s%s\n" (summary base) steady;
              List.iter
                (fun cand ->
                  Printf.printf "  %s  %s\n" (summary cand)
                    (verdict info ~base ~cand))
                rest)
        pairs;
      0

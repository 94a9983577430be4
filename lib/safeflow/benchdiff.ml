(* Perf-regression comparison over self-describing BENCH_*.json files.

   Both files are parsed with Jsonlite; every top-level array of
   objects ("b1_systems", "fleet", "jobs_sweep", ...) contributes rows.
   Rows are matched by an identity key — the array name plus the row's
   discriminating fields (system/input/workers/jobs/..., including the
   semantic-config fingerprint, so rows from semantically different
   configurations never get compared).  Within a matched pair only
   time-like metrics are judged:

     *_ms / *_s           lower is better (except the _min/_mean/_stddev
                          noise companions, which are informational)
     *analyses_per_sec    higher is better

   counts, rates and speedups are derived values and are skipped.  Tiny
   rows are too noisy to gate on: a metric is only judged when at least
   one side is >= 0.5 ms.

   Host rule: benchmark numbers only transfer between identical hosts.
   When either file lacks a hostname, or the hostnames differ, the
   verdict carries [host_match = false] and {!gate} treats regressions
   as non-blocking (warn, exit 0). *)

type direction = Lower_better | Higher_better

type delta = {
  d_row : string;  (* human-readable row label *)
  d_metric : string;
  d_old : float;
  d_new : float;
  d_change_pct : float;  (* signed; positive = metric value went up *)
  d_regression : bool;
}

type verdict = {
  v_threshold : float;  (* fraction, e.g. 0.10 *)
  v_host_match : bool;
  v_rows_matched : int;
  v_rows_old_only : int;
  v_rows_new_only : int;
  v_deltas : delta list;  (* regressions and improvements past threshold *)
  v_notes : string list;
}

(* identity fields: everything that names a configuration rather than
   measuring it.  Order fixed so keys are stable. *)
let identity_fields =
  [
    "system"; "input"; "engine"; "engines"; "systems"; "workers"; "jobs";
    "shard_domains"; "workers_per_member"; "depth"; "absint"; "overlap"; "dup"; "seed";
    "config_fingerprint";
  ]

let string_of_value (j : Jsonlite.t) =
  match j with
  | Str s -> s
  | Num f -> if Float.is_integer f then string_of_int (int_of_float f) else Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Null -> "null"
  | Arr l -> String.concat "+" (List.filter_map Jsonlite.to_string l)
  | Obj _ -> "<obj>"

let row_key ~array_name fields =
  let parts =
    List.filter_map
      (fun f ->
        match List.assoc_opt f fields with
        | Some v -> Some (f ^ "=" ^ string_of_value v)
        | None -> None)
      identity_fields
  in
  array_name ^ "[" ^ String.concat "," parts ^ "]"

(* display label: like the key but without the fingerprint noise *)
let row_label ~array_name fields =
  let parts =
    List.filter_map
      (fun f ->
        if f = "config_fingerprint" then None
        else
          match List.assoc_opt f fields with
          | Some v -> Some (f ^ "=" ^ string_of_value v)
          | None -> None)
      identity_fields
  in
  match parts with
  | [] -> array_name
  | _ -> array_name ^ " " ^ String.concat " " parts

let ends_with suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let metric_direction name =
  if ends_with "_min_ms" name || ends_with "_mean_ms" name || ends_with "_stddev_ms" name
  then None
  else if ends_with "analyses_per_sec" name then Some Higher_better
  else if ends_with "_ms" name || ends_with "_s" name then Some Lower_better
  else None

(* value in milliseconds, for the noise floor *)
let in_ms name v = if ends_with "_ms" name then v else v *. 1000.0

let noise_floor_ms = 0.5

let rows_of_file (j : Jsonlite.t) =
  match j with
  | Obj top ->
    List.concat_map
      (fun (name, v) ->
        match v with
        | Jsonlite.Arr elems ->
          List.filter_map
            (fun e ->
              match e with Jsonlite.Obj fields -> Some (name, fields) | _ -> None)
            elems
        | _ -> [])
      top
  | _ -> []

let meta_field j name =
  Option.bind (Jsonlite.member "meta" j) (fun m ->
      Option.bind (Jsonlite.member name m) Jsonlite.to_string)

let diff ?(threshold = 0.10) ~old_text ~new_text () =
  match (Jsonlite.parse old_text, Jsonlite.parse new_text) with
  | Error e, _ -> Error ("old file: " ^ e)
  | _, Error e -> Error ("new file: " ^ e)
  | Ok jold, Ok jnew ->
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
    let host_old = meta_field jold "hostname" in
    let host_new = meta_field jnew "hostname" in
    let host_match =
      match (host_old, host_new) with
      | Some a, Some b when a = b -> true
      | None, None ->
        note "neither file records a hostname; treating as different hosts";
        false
      | Some a, Some b ->
        note "hostname mismatch: %s vs %s" a b;
        false
      | _ ->
        note "hostname present in only one file";
        false
    in
    (match (meta_field jold "config_fingerprint", meta_field jnew "config_fingerprint") with
    | Some a, Some b when a <> b ->
      note "semantic-config fingerprint differs (%s vs %s): rows will not match" a b
    | _ -> ());
    let old_rows = rows_of_file jold and new_rows = rows_of_file jnew in
    let old_tbl = Hashtbl.create 32 in
    List.iter
      (fun (name, fields) -> Hashtbl.replace old_tbl (row_key ~array_name:name fields) fields)
      old_rows;
    let matched = ref 0 and new_only = ref 0 in
    let deltas = ref [] in
    List.iter
      (fun (name, nfields) ->
        let key = row_key ~array_name:name nfields in
        match Hashtbl.find_opt old_tbl key with
        | None -> incr new_only
        | Some ofields ->
          Hashtbl.remove old_tbl key;
          incr matched;
          let label = row_label ~array_name:name nfields in
          List.iter
            (fun (mname, nval) ->
              match (metric_direction mname, Jsonlite.to_float nval) with
              | Some dir, Some nv -> (
                match Option.bind (List.assoc_opt mname ofields) Jsonlite.to_float with
                | Some ov
                  when ov > 0.0
                       && Float.max (in_ms mname ov) (in_ms mname nv) >= noise_floor_ms ->
                  let change = (nv -. ov) /. ov in
                  let regression =
                    match dir with
                    | Lower_better -> change > threshold
                    | Higher_better -> change < -.threshold
                  in
                  let improvement =
                    match dir with
                    | Lower_better -> change < -.threshold
                    | Higher_better -> change > threshold
                  in
                  if regression || improvement then
                    deltas :=
                      {
                        d_row = label;
                        d_metric = mname;
                        d_old = ov;
                        d_new = nv;
                        d_change_pct = change *. 100.0;
                        d_regression = regression;
                      }
                      :: !deltas
                | _ -> ())
              | _ -> ())
            nfields)
      new_rows;
    let old_only = Hashtbl.length old_tbl in
    if !matched = 0 then note "no rows matched between the two files";
    Ok
      {
        v_threshold = threshold;
        v_host_match = host_match;
        v_rows_matched = !matched;
        v_rows_old_only = old_only;
        v_rows_new_only = !new_only;
        v_deltas = List.rev !deltas;
        v_notes = List.rev !notes;
      }

let regressions v = List.filter (fun d -> d.d_regression) v.v_deltas

let print_report oc v =
  Printf.fprintf oc "bench diff: %d row(s) matched, %d old-only, %d new-only, threshold %.0f%%\n"
    v.v_rows_matched v.v_rows_old_only v.v_rows_new_only (v.v_threshold *. 100.0);
  List.iter (fun n -> Printf.fprintf oc "note: %s\n" n) v.v_notes;
  let regs = regressions v in
  let imps = List.filter (fun d -> not d.d_regression) v.v_deltas in
  if v.v_deltas = [] then
    Printf.fprintf oc "no metric moved by more than %.0f%%\n" (v.v_threshold *. 100.0)
  else begin
    let print_delta tag d =
      Printf.fprintf oc "%-10s %-60s %-28s %12.3f -> %12.3f  (%+.1f%%)\n" tag d.d_row
        d.d_metric d.d_old d.d_new d.d_change_pct
    in
    List.iter (print_delta "REGRESSED") regs;
    List.iter (print_delta "improved") imps
  end;
  if regs <> [] && not v.v_host_match then
    Printf.fprintf oc
      "note: hosts differ — regressions reported above are non-blocking\n"

let gate v = if regressions v <> [] && v.v_host_match then 1 else 0

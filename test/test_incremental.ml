(* End-to-end tests for the content-addressed incremental cache and the
   parallel driver: reports must be structurally identical across {no
   cache, cold, warm, one-function edit}; the on-disk tier must survive
   a round trip through a fresh process-level cache object and silently
   recompute corrupt entries; Driver.analyze_files_par must agree with
   sequential analysis in input order. *)

open Safeflow

let systems =
  [ "car_follow.c"; "double_ip.c"; "figure2.c"; "generic_simplex.c";
    "ip_controller.c" ]

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let report ?cache config src = (Driver.analyze ~config ?cache src).Driver.report

let check_report label (expected : Report.t) (actual : Report.t) =
  Alcotest.(check bool) label true (expected = actual)

(* an uncalled one-function edit: every other function keeps its source
   location, so only the probe's dependent cache entries miss *)
let probe = "\ndouble __cache_probe(double x) { return x * 2.0; }\n"

let test_warm_identity () =
  List.iter
    (fun sys ->
      let src = read_file (find_system sys) in
      let baseline = report Config.default src in
      let c = Cache.create () in
      check_report (sys ^ " cold") baseline (report ~cache:c Config.default src);
      check_report (sys ^ " warm") baseline (report ~cache:c Config.default src))
    systems

let test_dirty_identity () =
  List.iter
    (fun sys ->
      let src = read_file (find_system sys) in
      let dirty = src ^ probe in
      let fresh = report Config.default dirty in
      let c = Cache.create () in
      ignore (report ~cache:c Config.default src);
      (* primed with the unedited source *)
      check_report (sys ^ " dirty") fresh (report ~cache:c Config.default dirty))
    systems

(* disk entries live under a generation subdirectory of the cache root *)
let rec clear_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then begin
          clear_dir p;
          Sys.rmdir p
        end
        else Sys.remove p)
      (Sys.readdir dir)

let rec entry_files dir =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then entry_files p else [ p ])

let test_disk_roundtrip () =
  let dir = "tmp_cache_disk" in
  clear_dir dir;
  let src = read_file (find_system "ip_controller.c") in
  let baseline = report Config.default src in
  ignore (report ~cache:(Cache.create ~dir ()) Config.default src);
  Alcotest.(check bool) "entries were written to disk" true
    (List.exists (fun f -> Filename.basename f <> "GENERATION") (entry_files dir));
  (* a brand-new cache object must read them back *)
  let c2 = Cache.create ~dir () in
  check_report "report after disk round trip" baseline
    (report ~cache:c2 Config.default src);
  let hits = List.fold_left (fun acc (_, (h, _)) -> acc + h) 0 (Cache.stats c2) in
  Alcotest.(check bool) "disk entries were hit" true (hits > 0)

let test_disk_corrupt () =
  let dir = "tmp_cache_corrupt" in
  clear_dir dir;
  let src = read_file (find_system "figure2.c") in
  let baseline = report Config.default src in
  ignore (report ~cache:(Cache.create ~dir ()) Config.default src);
  (* vandalize every entry: garbage in half, truncation to zero in half *)
  List.iteri
    (fun i f ->
      let oc = open_out_bin f in
      if i mod 2 = 0 then output_string oc "not a marshalled cache entry";
      close_out oc)
    (entry_files dir);
  check_report "corrupt entries are silently recomputed" baseline
    (report ~cache:(Cache.create ~dir ()) Config.default src)

(* A cold disk run writes exactly the live namespaces: phase 3 is cached
   as a whole result only, never per (function, context) pair. *)
let test_disk_namespaces () =
  let dir = "tmp_cache_namespaces" in
  clear_dir dir;
  let src = read_file (find_system "ip_controller.c") in
  ignore (report ~cache:(Cache.create ~dir ()) Config.default src);
  let prefixes =
    entry_files dir
    |> List.filter_map (fun f ->
           let b = Filename.basename f in
           if Filename.check_suffix b ".bin" then
             Option.map (fun i -> String.sub b 0 i) (String.index_opt b '-')
           else None)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "entry namespaces"
    [ "absint"; "phase1"; "phase2"; "phase2fn"; "phase3"; "pointsto"; "prepared" ]
    prefixes

let test_par_driver_deterministic () =
  let paths = List.map find_system systems in
  let seq = List.map (fun p -> (Driver.analyze_file p).Driver.report) paths in
  let par =
    List.map
      (fun (a : Driver.analysis) -> a.Driver.report)
      (Driver.analyze_files_par paths)
  in
  Alcotest.(check int) "one result per input" (List.length seq) (List.length par);
  List.iteri
    (fun i (s, p) -> check_report (Fmt.str "result %d matches input order" i) s p)
    (List.combine seq par)

let () =
  Alcotest.run "incremental"
    [ ( "cache",
        [ Alcotest.test_case "cold and warm reports identical" `Quick
            test_warm_identity;
          Alcotest.test_case "one-function edit reports identical" `Quick
            test_dirty_identity ] );
      ( "disk",
        [ Alcotest.test_case "round trip through a fresh cache" `Quick
            test_disk_roundtrip;
          Alcotest.test_case "corrupt entries recomputed" `Quick test_disk_corrupt;
          Alcotest.test_case "cold run writes only live namespaces" `Quick
            test_disk_namespaces ] );
      ( "parallel",
        [ Alcotest.test_case "analyze_files_par deterministic" `Quick
            test_par_driver_deterministic ] ) ]

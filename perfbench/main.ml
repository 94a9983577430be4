(* SafeFlow time-to-verdict benchmark.

   One process, one client, one analysis at a time: a closed loop over
   the library's public API with [Config.default] (sequential pair
   build, no multi-file or fleet parallelism).  A timed operation ("op")
   is what [safeflow analyze --save-findings] does for one source —
   [Driver.analyze], [Report.to_string] and the fingerprinted findings —
   and, on [audit], also what [--emit-certs] and [check-cert] do.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe selftest     determinism check of generators and counts
     main.exe meta         host and format identity, as JSON

   [--trace 0] prints the end-to-end metrics, with every time rescaled
   to a fixed host speed (see "host speed" below; the line before the
   JSON gives the unscaled wall figures); [--trace 1] alternates
   untraced ops with ops that call the staged public functions in the
   order [Driver.analyze] uses, timing each call from outside, and
   prints the per-layer metrics, in wall time.  The last stdout line is
   one JSON object: {"correct", "attempted", "failed", "metrics"}. *)

open Safeflow

let t_process = Telemetry.now_ns ()
let now () = Telemetry.now_ns ()
let ms_of ns = Int64.to_float ns /. 1e6
let secs_since t = Int64.to_float (Int64.sub (now ()) t) /. 1e9
let config = Config.default
let op_limit_s = 10.

(* -- files ------------------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* (files, bytes) under [dir] *)
let rec du dir =
  if not (Sys.file_exists dir) then (0, 0)
  else
    Array.fold_left
      (fun (n, b) e ->
        let p = Filename.concat dir e in
        let st = Unix.lstat p in
        match st.Unix.st_kind with
        | Unix.S_DIR ->
          let n', b' = du p in
          (n + n', b + b')
        | _ -> (n + 1, b + st.Unix.st_size))
      (0, 0) (Sys.readdir dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let work_root = ".perfbench"

(* a private scratch directory for this process, removed at exit *)
let work_dir =
  lazy
    (let d = Filename.concat work_root (Printf.sprintf "work-%d" (Unix.getpid ())) in
     rm_rf d;
     mkdir_p d;
     at_exit (fun () -> try rm_rf d with _ -> ());
     d)

(* [VmHWM] of this process; /proc files have no length, so read by line *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    let l = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" l then Scanf.sscanf l "VmHWM: %d kB" Fun.id
    else find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

(* -- statistics ------------------------------------------------------------------- *)

let sorted l = List.sort compare l

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (sorted l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* the highest percentile with at least ten samples beyond it, as
   (value, percentile); [None] below eleven samples *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 11 then None
  else Some (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* -- host speed ---------------------------------------------------------------------- *)

(* On a shared 2-vCPU VM the time of one op was seen to change by up to
   2.3x from one minute to the next, and the kernel's file-creation speed
   by up to 50x.  Fixed probes, timed just before and just after each
   op, show the same swings, and every end-to-end time is rescaled by
   them to the host speed at which the probes take their nominal times.
   A step that creates files is split, and the files it created, counted
   after it, are charged at the nominal per-file cost of the file-system
   probe.  On audit's ops, which emit certificate bundles, they are taken
   to have cost what the probe measured per file, and the CPU probe
   rescales the rest of the wall time.  On the set-up of audit and edit
   (the warm-up bundles; the cold cache fill), a probe taken around a
   burst of thousands of creations misjudged it by up to a third, so the
   CPU probe rescales the set-up's user time (getrusage) instead.  Every
   other step is rescaled by the CPU probe alone; edit's ops create few
   files and spend their system time reading cache entries, which the
   file-creation slowdowns were not seen to touch.

   The CPU probe, like the analyzer, allocates short-lived lists and tree
   nodes: hashtable updates, a 6000-key map and a sort.  Its working set
   stays in a core's cache; a probe that made random reads over a 4 MB
   table instead varied by up to 30% between processes on a steady host,
   by more than the ops it was to rescale.  The file-system probe creates
   files through a temporary name and a rename, as the cache does.
   Neither calls anything in the program, so a change to the analyzer
   does not change them. *)

let cal_nominal_ms = 3.

module IntMap = Map.Make (Int)

let calibrate_ms () =
  let t0 = now () in
  let h = Hashtbl.create 64 in
  for i = 0 to 10_000 do
    let k = (i * 7919) land 1023 in
    let l = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k (if List.length l > 6 then [ i ] else i :: l)
  done;
  let st = ref 12345 in
  let rnd () =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st
  in
  let m = ref IntMap.empty in
  for _ = 1 to 6_000 do
    m := IntMap.add (rnd ()) (rnd ()) !m
  done;
  let sum = IntMap.fold (fun k v a -> a + (k lxor v)) !m 0 in
  let sorted = List.sort compare (List.init 6_000 (fun _ -> rnd ())) in
  ignore (Sys.opaque_identity (h, sum, sorted));
  ms_of (Int64.sub (now ()) t0)

let fs_nominal_ms = 1.
let fs_probe_files = 24
let fs_probe_payload = String.make 400 'p'

(* the time to create [fs_probe_files] small files; they are removed
   after the clock stops *)
let fs_probe_ms () =
  let dir = Filename.concat (Lazy.force work_dir) "fs-probe" in
  mkdir_p dir;
  let path i = Filename.concat dir (string_of_int i) in
  let t0 = now () in
  for i = 1 to fs_probe_files do
    let tmp = path i ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc fs_probe_payload;
    close_out oc;
    Sys.rename tmp (path i)
  done;
  let dt = ms_of (Int64.sub (now ()) t0) in
  for i = 1 to fs_probe_files do
    Sys.remove (path i)
  done;
  dt

(* the probes, as (cpu ms, fs ms); the file-system one only if [fs] *)
let probe ~fs =
  let c = calibrate_ms () in
  (c, if fs then fs_probe_ms () else fs_nominal_ms)

let per_file_s probe_ms = probe_ms /. float_of_int fs_probe_files /. 1000.

(* [wall] seconds of a step that created [files] files, at the host
   speed of the probes [before] and [after] *)
let rescale ~files ~wall ((c0, f0) as _before) (c1, f1) =
  let fs_s = Float.min wall (float_of_int files *. per_file_s ((f0 +. f1) /. 2.)) in
  ((wall -. fs_s) *. cal_nominal_ms /. ((c0 +. c1) /. 2.))
  +. (float_of_int files *. per_file_s fs_nominal_ms)

(* user seconds this process has used so far *)
let user_s () = (Unix.times ()).Unix.tms_utime

(* -- workloads ---------------------------------------------------------------------- *)

type workload = {
  w_name : string;
  w_why : string;
  w_cache : bool;  (* ops attach a disk cache (edit) *)
  w_certs : bool;  (* ops emit and re-check a certificate bundle (audit) *)
  w_inputs : int -> Gen.input list;  (* seed -> the op rotation *)
}

let wide_size = 384
let deep_depth = 500
let audit_kernels = 40
let audit_planted = 2
let edit_size = 192

let workloads =
  [
    {
      w_name = "wide";
      w_why =
        "seeded Synth programs of 384 workers: phase 1, points-to, parse and \
         lower scale with function count; no obligations, shallow control \
         dependence";
      w_cache = false;
      w_certs = false;
      w_inputs = (fun seed -> Gen.wide ~seed ~size:wide_size ~count:2);
    };
    {
      w_name = "deep";
      w_why =
        "one unmonitored read guarding a 500-deep if-nest: SSA, absint and the \
         phase-3 pair build dominate and set peak memory; phase 1 and points-to \
         near zero";
      w_cache = false;
      w_certs = false;
      w_inputs = (fun seed -> Gen.deep ~seed ~depth:deep_depth ~count:3);
    };
    {
      w_name = "audit";
      w_why =
        "paper systems plus array kernels only Omega can bound; every op emits \
         its certificate bundle and re-checks it independently";
      w_cache = false;
      w_certs = true;
      w_inputs =
        (fun seed ->
          let kernels =
            Gen.audit_kernels ~seed ~kernels:audit_kernels ~planted:audit_planted ~count:15
          in
          let systems =
            List.map
              (fun s ->
                let label = Printf.sprintf "systems/%s.c" s in
                { Gen.label; src = read_file label; expect = None })
              Gen.paper_systems
          in
          (* paper systems spread evenly through the rotation *)
          List.concat
            (List.mapi
               (fun i k -> if i mod 3 = 2 then [ k; List.nth systems (i / 3) ] else [ k ])
               kernels));
    };
    {
      w_name = "edit";
      w_why =
        "edit loop on a Synth program with a disk cache: each op re-analyzes \
         after a one-function constant edit, reading unchanged entries";
      w_cache = true;
      w_certs = false;
      w_inputs = (fun seed -> [ Gen.edit_base ~seed ~size:edit_size ]);
    };
  ]

let baselines : (string, Diffreport.entry list) Hashtbl.t = Hashtbl.create 8

let baseline label =
  match Hashtbl.find_opt baselines label with
  | Some b -> b
  | None ->
    let b =
      Diffreport.load
        (Filename.concat "baselines"
           (Filename.remove_extension (Filename.basename label) ^ ".findings"))
    in
    Hashtbl.replace baselines label b;
    b

(* -- one op ------------------------------------------------------------------------- *)

type outcome = {
  o_entries : Diffreport.entry list;
  o_bounds : Phase2.bounds_stats;
  o_certs : (Cert.summary * Checker.outcome) option;
  o_loc : int;
}

(* [safeflow check-cert BUNDLE FILE] in two steps: a fresh frontend run
   over the source, then the independent checker on the bundle *)
let checker_frontend ~label src =
  let prep = Driver.prepare_source ~file:label src in
  let shm = Driver.stage_shm prep in
  ( prep.Driver.ir,
    List.map (fun (r : Shm.region) -> (r.Shm.r_name, r.Shm.r_size)) shm.Shm.regions,
    Digest_ir.of_program prep.Driver.ir )

let validate (ir, regions, (d : Digest_ir.t)) dir =
  Checker.validate_bundle ~ir ~regions
    ~expect:[ ("program", d.Digest_ir.program); ("env", d.Digest_ir.env) ]
    ~check_finding:(Cert.check_finding_binding ir) dir

let check_bundle ~label src dir = validate (checker_frontend ~label src) dir

let emit_and_check ~label ~src ~dir (a : Driver.analysis) =
  match Cert.emit_bundle ~config ~label ~dir a with
  | Error e -> failwith ("certificate emission failed: " ^ e)
  | Ok s -> (s, check_bundle ~label src dir)

let untraced_op ~cache_dir ~bundle_dir (inp : Gen.input) : outcome =
  let cache = Option.map (fun dir -> Cache.create ~dir ()) cache_dir in
  let a = Driver.analyze ~config ?cache ~file:inp.Gen.label inp.Gen.src in
  let report = a.Driver.report in
  ignore (Sys.opaque_identity (Report.to_string report));
  let fctx = Fingerprint.ctx_of_program a.Driver.prepared.Driver.ir in
  let entries = Diffreport.entries_of_report fctx ~file:inp.Gen.label report in
  {
    o_entries = entries;
    o_bounds = a.Driver.coverage.Coverage.cov_bounds;
    o_certs =
      Option.map (fun dir -> emit_and_check ~label:inp.Gen.label ~src:inp.Gen.src ~dir a) bundle_dir;
    o_loc = a.Driver.prepared.Driver.loc_total;
  }

(* the reason an op's verdict is wrong, or [None] *)
let verdict_error (inp : Gen.input) (o : outcome) : string option =
  let codes =
    List.fold_left
      (fun acc (e : Diffreport.entry) ->
        let n = Option.value (List.assoc_opt e.Diffreport.e_code acc) ~default:0 in
        (e.Diffreport.e_code, n + 1) :: List.remove_assoc e.Diffreport.e_code acc)
      [] o.o_entries
    |> List.sort compare
  in
  let fmt_codes l = String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) l) in
  let b = o.o_bounds in
  let cert_error =
    match o.o_certs with
    | None -> None
    | Some (s, c) ->
      if c.Checker.failures <> [] then Some "certificate failed"
      else if c.Checker.skipped > 0 || s.Cert.cs_skipped <> [] then Some "certificate skipped"
      else if c.Checker.passed <> s.Cert.cs_written then Some "certificate count mismatch"
      else None
  in
  let verdict =
    match inp.Gen.expect with
    | None ->
      let d = Diffreport.diff ~baseline:(baseline inp.Gen.label) ~current:o.o_entries in
      if d.Diffreport.d_new <> [] || d.Diffreport.d_fixed <> [] then
        Some "paper system differs from its baseline"
      else None
    | Some e ->
      if codes <> e.Gen.codes then
        Some (Printf.sprintf "findings %s, expected %s" (fmt_codes codes) (fmt_codes e.Gen.codes))
      else if
        b.Phase2.bs_failed <> e.Gen.planted_a1
        || b.Phase2.bs_omega <> e.Gen.omega_only
        || b.Phase2.bs_total <> e.Gen.planted_a1 + e.Gen.omega_only
      then
        Some
          (Printf.sprintf "obligations total=%d omega=%d failed=%d, expected omega=%d failed=%d"
             b.Phase2.bs_total b.Phase2.bs_omega b.Phase2.bs_failed e.Gen.omega_only
             e.Gen.planted_a1)
      else None
  in
  match verdict with Some _ -> verdict | None -> cert_error

(* -- traced op ------------------------------------------------------------------------ *)

let layers =
  [ "minic.parse"; "minic.typecheck"; "ssair.lower"; "ssair.mem2reg"; "ssair.verify"; "shm";
    "phase1"; "absint"; "phase2"; "pointsto"; "phase3"; "coverage"; "report"; "cert";
    "checker.frontend"; "checker"; "cache" ]

type span = { sp_op : int; sp_name : string; sp_start : int64; sp_dur : int64 }

type trace_row = {
  tr_wall_ms : float;
  tr_self : (string, float * float) Hashtbl.t;  (* layer -> ms, allocated words *)
  tr_counts : (string * float) list;
  tr_fps : string list;  (* sorted fingerprints *)
  tr_outcome : outcome;
}

let spans : span list ref = ref []

(* growth of [top_heap_words] per layer over every traced op of the
   run, set-up included: the first op on an input is the one that
   raises the peak *)
let heap_growth : (string, float) Hashtbl.t = Hashtbl.create 16

let hist_view name = List.find_opt (fun h -> h.Telemetry.hv_name = name) (Telemetry.histograms ())

let span_total_ms name =
  List.fold_left
    (fun acc (s : Telemetry.span_record) ->
      if s.Telemetry.s_name = name then acc +. ms_of s.Telemetry.s_dur_ns else acc)
    0. (Telemetry.spans ())

let fingerprints entries = sorted (List.map (fun (e : Diffreport.entry) -> e.Diffreport.e_fp) entries)

let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

(* time inside the cache's own [cache.find] and [cache.store] spans so far *)
let cache_span_ns () =
  List.fold_left
    (fun acc (s : Telemetry.span_record) ->
      match s.Telemetry.s_name with
      | "cache.find" | "cache.store" -> Int64.add acc s.Telemetry.s_dur_ns
      | _ -> acc)
    0L (Telemetry.spans ())

(* The stages of [Driver.analyze] called one by one, each timed from
   outside; the program's own telemetry is on only here, for counts
   and phase-3 sub-spans.  The cache lookups that [stage_absint],
   [stage_phase2] and [stage_phase3] make inside themselves are taken
   from the program's cache spans and moved to the [cache] layer; their
   allocation stays with the calling layer. *)
let traced_op ~op ~cache_dir ~bundle_dir (inp : Gen.input) : trace_row =
  let self = Hashtbl.create 16 in
  let add name ms al =
    let ms0, al0 = Option.value (Hashtbl.find_opt self name) ~default:(0., 0.) in
    Hashtbl.replace self name (ms0 +. ms, al0 +. al)
  in
  let timed name f =
    let inner () = if cache_dir = None || name = "cache" then 0L else cache_span_ns () in
    let c0 = inner () in
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    let in_cache = ms_of (Int64.sub (inner ()) c0) in
    add name (ms_of (Int64.sub t1 t0) -. in_cache) (words g1 -. words g0);
    if in_cache > 0. then add "cache" in_cache 0.;
    let hp = Option.value (Hashtbl.find_opt heap_growth name) ~default:0. in
    Hashtbl.replace heap_growth name
      (hp +. float_of_int (g1.Gc.top_heap_words - g0.Gc.top_heap_words));
    spans := { sp_op = op; sp_name = name; sp_start = t0; sp_dur = Int64.sub t1 t0 } :: !spans;
    v
  in
  let file = inp.Gen.label and src = inp.Gen.src in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let t_op = now () in
  let result =
    Fun.protect ~finally:(fun () ->
        Telemetry.set_enabled false;
        Telemetry.reset ())
    @@ fun () ->
    Cache.with_origin file @@ fun () ->
    let cache = Option.map (fun dir -> timed "cache" (fun () -> Cache.create ~dir ())) cache_dir in
    let cached (type a) ns key (f : unit -> a) : a =
      match cache with
      | None -> f ()
      | Some c -> (
        match timed "cache" (fun () -> (Cache.find c ~ns ~key : a option)) with
        | Some v -> v
        | None ->
          let v = f () in
          timed "cache" (fun () -> Cache.store c ~ns ~key v);
          v)
    in
    let frontend () =
      let ast = timed "minic.parse" (fun () -> Minic.Parser.parse_string ~file src) in
      let tast = timed "minic.typecheck" (fun () -> Minic.Typecheck.check_program ast) in
      let ir = timed "ssair.lower" (fun () -> Ssair.Build.lower tast) in
      timed "ssair.mem2reg" (fun () -> ignore (Ssair.Mem2reg.run ir));
      (match timed "ssair.verify" (fun () -> Ssair.Verify.check_program ~ssa:true ir) with
      | [] -> ()
      | v :: _ -> failwith ("IR verification failed: " ^ v.Ssair.Verify.vmsg));
      { Driver.ir; annotation_lines = Driver.count_annotations ast; loc_total = Driver.count_loc src }
    in
    let p = cached "prepared" (Digest_ir.source_key ~file src) frontend in
    let digests = Option.map (fun _ -> timed "cache" (fun () -> Digest_ir.of_program p.Driver.ir)) cache in
    let program_key extra =
      match digests with
      | Some d -> Digest_ir.combine (d.Digest_ir.program :: extra)
      | None -> ""
    in
    let shm = timed "shm" (fun () -> Driver.stage_shm p) in
    let p1 =
      cached "phase1"
        (program_key [ Digest_ir.semantic_config config ])
        (fun () -> timed "phase1" (fun () -> Driver.stage_phase1 ~config p shm))
    in
    let absint = timed "absint" (fun () -> Driver.stage_absint ~config ?cache p) in
    let ph2 = timed "phase2" (fun () -> Driver.stage_phase2 ~config ?cache ?digests ?absint p p1) in
    let pts =
      (* [Driver.analyze] keys points-to on the program digest alone *)
      cached "pointsto"
        (match digests with Some d -> d.Digest_ir.program | None -> "")
        (fun () -> timed "pointsto" (fun () -> Driver.stage_pointsto p))
    in
    let ph3 =
      timed "phase3" (fun () -> Driver.stage_phase3 ~config ?cache ?digests ?absint p shm p1 pts)
    in
    let fctx, report =
      timed "report" (fun () ->
          let fctx = Fingerprint.ctx_of_program p.Driver.ir in
          (* [Driver.analyze]'s canonical order: (file, line, fingerprint) *)
          let by_fp wrap natural a b =
            let c = Report.compare_loc (Fingerprint.loc (wrap a)) (Fingerprint.loc (wrap b)) in
            if c <> 0 then c
            else
              let c = compare (Fingerprint.compute fctx (wrap a)) (Fingerprint.compute fctx (wrap b)) in
              if c <> 0 then c else natural a b
          in
          ( fctx,
            {
              Report.violations =
                List.stable_sort
                  (by_fp (fun v -> Fingerprint.Violation v) Report.compare_violation)
                  ph2.Phase2.violations;
              warnings =
                List.stable_sort
                  (by_fp (fun w -> Fingerprint.Warning w) Report.compare_warning)
                  ph3.Phase3.warnings;
              dependencies =
                List.stable_sort
                  (by_fp (fun d -> Fingerprint.Dependency d) Report.compare_dependency)
                  ph3.Phase3.dependencies;
              infos = [];
              regions =
                List.map
                  (fun (r : Shm.region) -> (r.Shm.r_name, r.Shm.r_size, r.Shm.r_noncore))
                  shm.Shm.regions;
              annotation_lines = p.Driver.annotation_lines;
              stats = [];
            } ))
    in
    let coverage =
      timed "coverage" (fun () ->
          Coverage.compute ~bounds:ph2.Phase2.bounds ~prog:p.Driver.ir ~shm ~p1 ~pts
            ~analyzed:(Driver.analyzed_functions ph3 p1) report)
    in
    let report, entries =
      timed "report" (fun () ->
          let report =
            {
              report with
              Report.stats =
                [ ("loc", p.Driver.loc_total);
                  ("functions", List.length p.Driver.ir.Ssair.Ir.funcs);
                  ("phase3_passes", ph3.Phase3.passes);
                  ("phase3_contexts", ph3.Phase3.pair_count) ]
                @ Coverage.stats coverage @ ph3.Phase3.engine_stats;
            }
          in
          ignore (Sys.opaque_identity (Report.to_string report));
          (report, Diffreport.entries_of_report fctx ~file report))
    in
    let certs =
      Option.map
        (fun dir ->
          let a =
            { Driver.report; phase3 = ph3; prepared = p; shm; phase1 = p1; pointsto = pts;
              coverage; ledger = ph2.Phase2.ledger; absint }
          in
          let s =
            timed "cert" (fun () ->
                match Cert.emit_bundle ~config ~label:file ~dir a with
                | Ok s -> s
                | Error e -> failwith ("certificate emission failed: " ^ e))
          in
          let fresh = timed "checker.frontend" (fun () -> checker_frontend ~label:file src) in
          (s, timed "checker" (fun () -> validate fresh dir)))
        bundle_dir
    in
    let wall_ms = ms_of (Int64.sub (now ()) t_op) in
    let fl = float_of_int in
    let ir = p.Driver.ir in
    let blocks = List.concat_map (fun f -> f.Ssair.Ir.blocks) ir.Ssair.Ir.funcs in
    let hits, misses =
      match cache with
      | None -> (0, 0)
      | Some c ->
        List.fold_left
          (fun (h, m) (_, (s : Cache.ns_stats)) -> (h + s.Cache.hits, m + s.Cache.misses))
          (0, 0) (Cache.detailed_stats c)
    in
    let engine k = fl (Option.value (List.assoc_opt k ph3.Phase3.engine_stats) ~default:0) in
    let b = ph2.Phase2.bounds in
    let counts =
      [ ("ir.funcs", fl (List.length ir.Ssair.Ir.funcs));
        ("ir.blocks", fl (List.length blocks));
        ("ir.instrs", fl (List.fold_left (fun n bl -> n + List.length bl.Ssair.Ir.instrs) 0 blocks));
        ("absint.iterations", fl (Option.fold ~none:0 ~some:Absint.iterations absint));
        ("absint.widenings", fl (Option.fold ~none:0 ~some:Absint.widenings absint));
        ("phase2.obligations", fl b.Phase2.bs_total);
        ("phase2.by_ranges", fl b.Phase2.bs_ranges);
        ("phase2.by_omega", fl b.Phase2.bs_omega);
        ("phase2.failed", fl b.Phase2.bs_failed);
        ("omega.queries", fl (Option.fold ~none:0 ~some:(fun h -> h.Telemetry.hv_count) (hist_view "omega.query")));
        ("phase3.pairs", fl ph3.Phase3.pair_count);
        ("phase3.edges", engine "vf_edges");
        ("phase3.worklist_pops", engine "vf_pops");
        ("phase3.pair_build_ms", span_total_ms "pair.build");
        ("phase3.csr_ms", span_total_ms "phase3.csr_build");
        ("phase3.drain_ms", span_total_ms "phase3.drain");
        ("phase3.collect_ms", span_total_ms "phase3.collect");
        ("cache.hits", fl hits);
        ("cache.misses", fl misses);
        ("cache.hit_ratio", if hits + misses = 0 then 0. else fl hits /. fl (hits + misses));
        ("cache.disk_read_ms",
          Option.fold ~none:0. ~some:(fun h -> fl h.Telemetry.hv_sum_ns /. 1e6) (hist_view "cache.disk_read"));
        ("cert.written", Option.fold ~none:0. ~some:(fun (s, _) -> fl s.Cert.cs_written) certs);
        ("cert.skipped", Option.fold ~none:0. ~some:(fun (s, _) -> fl (List.length s.Cert.cs_skipped)) certs);
        ("checker.passed", Option.fold ~none:0. ~some:(fun (_, o) -> fl o.Checker.passed) certs);
        ("report.findings", fl (List.length entries)) ]
    in
    {
      tr_wall_ms = wall_ms;
      tr_self = self;
      tr_counts = counts;
      tr_fps = fingerprints entries;
      tr_outcome =
        { o_entries = entries; o_bounds = ph2.Phase2.bounds; o_certs = certs; o_loc = p.Driver.loc_total };
    }
  in
  spans :=
    { sp_op = op; sp_name = "op"; sp_start = t_op; sp_dur = Int64.of_float (result.tr_wall_ms *. 1e6) }
    :: !spans;
  result

(* -- the run ------------------------------------------------------------------------- *)

type run = {
  r_cache_dir : string option;
  r_bundle_dir : string option;
  r_source : Gen.input array;  (* the rotation; on [edit], the current source *)
  r_edits : Gen.edits option;
  mutable r_next : int;
  mutable r_attempted : int;
  r_fs : bool;  (* ops create files: probe the file system too *)
  mutable r_probes : (float * float) list;  (* taken around timed ops *)
  r_failed : (string, int) Hashtbl.t;  (* reason -> ops *)
}

(* the next op's input: round-robin over the rotation, or on [edit] the
   next seeded edit of the current source *)
let next_input r =
  match r.r_edits with
  | Some e ->
    let inp = Gen.apply_edit e r.r_source.(0) in
    r.r_source.(0) <- inp;
    inp
  | None ->
    let inp = r.r_source.(r.r_next mod Array.length r.r_source) in
    r.r_next <- r.r_next + 1;
    inp

let fail r reason =
  Hashtbl.replace r.r_failed reason (1 + Option.value (Hashtbl.find_opt r.r_failed reason) ~default:0)

let clear_bundle r = Option.iter (fun d -> rm_rf d) r.r_bundle_dir

(* Run [f] as one attempted op: time it, check its verdict, count a
   failure with its reason.  Returns the op's wall seconds and the same
   seconds rescaled by the probes taken around it. *)
let attempt r (inp : Gen.input) (f : unit -> outcome * 'a) : (float * float * outcome * 'a) option =
  r.r_attempted <- r.r_attempted + 1;
  clear_bundle r;
  (* every op starts from a collected heap, as a fresh [safeflow analyze]
     process would: the previous op's garbage is not this op's cost *)
  Gc.full_major ();
  let p0 = probe ~fs:r.r_fs in
  let t0 = now () in
  match f () with
  | exception e ->
    fail r ("raised " ^ Printexc.to_string e);
    None
  | o, x ->
    let dt = secs_since t0 in
    let files = Option.fold ~none:0 ~some:(fun d -> fst (du d)) r.r_bundle_dir in
    let p1 = probe ~fs:r.r_fs in
    r.r_probes <- p0 :: p1 :: r.r_probes;
    let scaled = rescale ~files ~wall:dt p0 p1 in
    if dt > op_limit_s then begin
      fail r "exceeded the per-op time limit";
      None
    end
    else (
      match verdict_error inp o with
      | Some reason ->
        fail r reason;
        None
      | None -> Some (dt, scaled, o, x))

(* Set-up: input generation, then one warm-up op on each input of the
   rotation; on [edit], that one op is the cold cache fill.  Returns the
   run, the seconds from process start to the end of set-up, where the
   first timed op begins, and the same seconds rescaled (see "host speed")
   by the median CPU probe taken around the warm-up ops.  The time of the
   probes and of counting the files the warm-up ops created is left out
   of both. *)
let setup (wl : workload) ~seed ~traced =
  let dir = Lazy.force work_dir in
  let r =
    {
      r_cache_dir = (if wl.w_cache then Some (Filename.concat dir "cache") else None);
      r_bundle_dir = (if wl.w_certs then Some (Filename.concat dir "bundle") else None);
      r_source = Array.of_list (wl.w_inputs seed);
      r_edits = (if wl.w_cache then Some (Gen.edits ~seed ~size:edit_size) else None);
      r_next = 0;
      r_attempted = 0;
      r_fs = wl.w_certs;
      r_probes = [];
      r_failed = Hashtbl.create 4;
    }
  in
  let probes = ref [] and files = ref 0 and aside_s = ref 0. and aside_user = ref 0. in
  let aside f =
    let t0 = now () and u0 = user_s () in
    f ();
    aside_s := !aside_s +. secs_since t0;
    aside_user := !aside_user +. (user_s () -. u0)
  in
  (* probes on a collected heap, as around the timed ops; the first call
     in the process runs cold and is discarded *)
  let take () =
    aside (fun () ->
        Gc.full_major ();
        probes := calibrate_ms () :: !probes)
  in
  aside (fun () -> ignore (calibrate_ms ()));
  let count dir = aside (fun () -> Option.iter (fun d -> files := !files + fst (du d)) dir) in
  Array.iter
    (fun inp ->
      take ();
      if traced then ignore (traced_op ~op:0 ~cache_dir:r.r_cache_dir ~bundle_dir:r.r_bundle_dir inp)
      else ignore (untraced_op ~cache_dir:r.r_cache_dir ~bundle_dir:r.r_bundle_dir inp);
      count r.r_bundle_dir;
      clear_bundle r)
    r.r_source;
  count r.r_cache_dir;
  take ();
  take ();
  take ();
  let wall = secs_since t_process -. !aside_s in
  let cpu = cal_nominal_ms /. median !probes in
  ( r,
    wall,
    if !files = 0 then wall *. cpu
    else ((user_s () -. !aside_user) *. cpu) +. (float_of_int !files *. per_file_s fs_nominal_ms) )

(* -- output ------------------------------------------------------------------------- *)

let json_num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  let m =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " m)

let report_failures r =
  Hashtbl.iter (fun reason n -> Printf.printf "failed %d op(s): %s\n" n reason) r.r_failed

(* the measuring window, and the latest a run may extend it to collect
   the samples its statistics need *)
let deadlines seconds =
  let t = now () and ns = Int64.of_float (seconds *. 1e9) in
  (Int64.add t ns, Int64.add t (Int64.mul 2L ns))

let n_failed r = Hashtbl.fold (fun _ n acc -> acc + n) r.r_failed 0

let untraced_run wl ~seed ~seconds =
  let r, setup_wall, setup_s = setup wl ~seed ~traced:false in
  let cache_files, cache_bytes = Option.fold ~none:(0, 0) ~some:du r.r_cache_dir in
  (* rescaled op seconds, as in the metrics, and wall seconds *)
  let samples = ref [] and walls = ref [] and loc = ref 0 in
  let deadline, hard_stop = deadlines seconds in
  while now () < deadline || (List.length !samples < 11 && now () < hard_stop) do
    let inp = next_input r in
    match
      attempt r inp (fun () ->
          (untraced_op ~cache_dir:r.r_cache_dir ~bundle_dir:r.r_bundle_dir inp, ()))
    with
    | Some (dt, scaled, o, ()) ->
      samples := scaled :: !samples;
      walls := dt :: !walls;
      loc := !loc + o.o_loc
    | None -> ()
  done;
  clear_bundle r;
  let ms = List.map (fun s -> s *. 1000.) !samples in
  let total_s = List.fold_left ( +. ) 0. !samples in
  let tail_ms, pct =
    match tail ms with Some t -> t | None -> (List.fold_left Float.max 0. ms, 100.)
  in
  let failed = n_failed r in
  report_failures r;
  Printf.printf
    "workload %s seed %d: %d ops, %d failed (fail_frac %.4f), tail = p%.1f of %d samples; \
     cold cache %d files %.1f MB; unscaled wall p50 %.2f ms, set-up %.3f s; \
     median probes cpu %.2f ms, fs %s ms\n"
    wl.w_name seed r.r_attempted failed
    (float_of_int failed /. float_of_int r.r_attempted)
    pct (List.length ms) cache_files
    (float_of_int cache_bytes /. 1048576.)
    (1000. *. median !walls) setup_wall
    (median (List.map fst r.r_probes))
    (if r.r_fs then Printf.sprintf "%.2f" (median (List.map snd r.r_probes)) else "-");
  print_result ~correct:(failed = 0 && ms <> []) ~attempted:r.r_attempted ~failed
    [ ("verdict_p50_ms", median ms, "ms");
      ("verdict_tail_ms", tail_ms, "ms");
      ("kloc_per_s", float_of_int !loc /. 1000. /. total_s, "kloc/s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("setup_s", setup_s, "s") ]

let write_chrome_trace path =
  let oc = open_out_bin path in
  let evs =
    List.rev_map
      (fun s ->
        Printf.sprintf
          "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
           \"args\": {\"op\": %d}}"
          s.sp_name
          (Int64.to_float (Int64.sub s.sp_start t_process) /. 1e3)
          (Int64.to_float s.sp_dur /. 1e3) s.sp_op)
      !spans
  in
  output_string oc ("{\"traceEvents\": [\n" ^ String.concat ",\n" evs ^ "\n]}\n");
  close_out oc

let traced_run wl ~seed ~seconds =
  let r, _, _ = setup wl ~seed ~traced:true in
  let _, cold_bytes = Option.fold ~none:(0, 0) ~some:du r.r_cache_dir in
  let rows = ref [] and untraced = ref [] and op = ref 0 in
  let deadline, hard_stop = deadlines seconds in
  while now () < deadline || (List.length !rows < 3 && now () < hard_stop) do
    incr op;
    (* an untraced op, the baseline for the tracing overhead *)
    let inp = next_input r in
    let untraced_fps =
      match
        attempt r inp (fun () ->
            (untraced_op ~cache_dir:r.r_cache_dir ~bundle_dir:r.r_bundle_dir inp, ()))
      with
      | Some (dt, _, o, ()) ->
        untraced := (dt *. 1000.) :: !untraced;
        Some (fingerprints o.o_entries)
      | None -> None
    in
    (* a traced op on the same input; on [edit] on the next edit, so the
       cache sees new work *)
    let tinp = if wl.w_cache then next_input r else inp in
    let files () = Option.fold ~none:0 ~some:(fun d -> fst (du d)) r.r_cache_dir in
    let files0 = files () in
    match
      attempt r tinp (fun () ->
          let row = traced_op ~op:!op ~cache_dir:r.r_cache_dir ~bundle_dir:r.r_bundle_dir tinp in
          (row.tr_outcome, row))
    with
    | None -> ()
    | Some (_, _, _, row) ->
      let written = files () - files0 in
      (* the staged pipeline must verdict exactly as [Driver.analyze] on
         the same source; on [edit] that rerun is warm, so cheap *)
      let reference =
        if wl.w_cache then
          Some (fingerprints (untraced_op ~cache_dir:r.r_cache_dir ~bundle_dir:None tinp).o_entries)
        else untraced_fps
      in
      match reference with
      | Some fps when fps <> row.tr_fps -> fail r "staged fingerprints differ from Driver.analyze"
      | _ -> rows := (row, float_of_int written) :: !rows
  done;
  clear_bundle r;
  mkdir_p (Filename.concat work_root "traces");
  let trace_path =
    Filename.concat work_root (Printf.sprintf "traces/%s-seed%d.json" wl.w_name seed)
  in
  write_chrome_trace trace_path;
  let rows = List.rev !rows in
  let walls = List.map (fun (row, _) -> row.tr_wall_ms) rows in
  let total_wall = List.fold_left ( +. ) 0. walls in
  let layer_ms l row = match Hashtbl.find_opt row.tr_self l with Some (ms, _) -> ms | None -> 0. in
  let layer_metrics =
    List.concat_map
      (fun l ->
        let per_op f = List.map (fun (row, _) -> f row) rows in
        let total = List.fold_left ( +. ) 0. (per_op (layer_ms l)) in
        [ (l ^ ".self_ms", median (per_op (layer_ms l)), "ms");
          (l ^ ".share", (if total_wall > 0. then total /. total_wall else 0.), "ratio");
          ( l ^ ".alloc_mw",
            median
              (per_op (fun row ->
                   match Hashtbl.find_opt row.tr_self l with Some (_, a) -> a /. 1e6 | None -> 0.)),
            "Mwords" );
          ( l ^ ".heap_growth_mb",
            Option.value (Hashtbl.find_opt heap_growth l) ~default:0.
            *. float_of_int (Sys.word_size / 8) /. 1048576.,
            "MB" ) ])
      layers
  in
  let count_names = match rows with (row, _) :: _ -> List.map fst row.tr_counts | [] -> [] in
  let count_metrics =
    List.map
      (fun n ->
        let unit =
          if Filename.check_suffix n "_ms" then "ms"
          else if Filename.check_suffix n "_ratio" then "ratio"
          else "count"
        in
        (n, median (List.map (fun (row, _) -> List.assoc n row.tr_counts) rows), unit))
      count_names
  in
  let attributed =
    List.fold_left (fun acc (row, _) -> acc +. List.fold_left (fun a l -> a +. layer_ms l row) 0. layers) 0. rows
  in
  let failed = n_failed r in
  report_failures r;
  Printf.printf "workload %s seed %d: %d traced ops, trace written to %s\n" wl.w_name seed
    (List.length rows) trace_path;
  print_result ~correct:(failed = 0 && rows <> []) ~attempted:r.r_attempted ~failed
    (layer_metrics @ count_metrics
    @ [ ("cache.entries_written", median (List.map snd rows), "count");
        ("cache.disk_mb", float_of_int cold_bytes /. 1048576., "MB");
        ("unattributed.share", (if total_wall > 0. then 1. -. (attributed /. total_wall) else 0.), "ratio");
        ("tracing_overhead", median walls /. median !untraced, "ratio") ])

(* -- determinism self-test ------------------------------------------------------------ *)

(* Per workload and seed: the rotation's first and last inputs (on
   [edit], the first two edits), each run once through the traced
   pipeline. *)
type det_row = {
  d_src : string;
  d_generated : bool;  (* [false] for a paper system *)
  d_fps : string list;
  d_counts : (string * float) list;  (* the counts that must repeat exactly *)
  d_verdict : string option;  (* [verdict_error] *)
}

let det_keys =
  [ "ir.instrs"; "phase3.pairs"; "absint.iterations"; "cache.hits"; "cache.misses"; "cert.written";
    "report.findings" ]

(* the counts a seed must not change: it varies names and constants,
   not the shape of a program *)
let shape_keys = [ "ir.instrs"; "phase3.pairs"; "cert.written"; "report.findings" ]

let det_rows wl ~seed =
  let r, _, _ = setup wl ~seed ~traced:true in
  let inputs =
    if wl.w_cache then [ next_input r; next_input r ]
    else [ r.r_source.(0); r.r_source.(Array.length r.r_source - 1) ]
  in
  let rows =
    List.mapi
      (fun i inp ->
        clear_bundle r;
        let row = traced_op ~op:i ~cache_dir:r.r_cache_dir ~bundle_dir:r.r_bundle_dir inp in
        {
          d_src = inp.Gen.src;
          d_generated = inp.Gen.expect <> None;
          d_fps = row.tr_fps;
          d_counts = List.map (fun k -> (k, List.assoc k row.tr_counts)) det_keys;
          d_verdict = verdict_error inp row.tr_outcome;
        })
      inputs
  in
  Option.iter rm_rf r.r_cache_dir;
  clear_bundle r;
  rows

let selftest () =
  let ok = ref true in
  let check name cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") name;
    if not cond then ok := false
  in
  List.iter
    (fun wl ->
      let a = det_rows wl ~seed:1 and b = det_rows wl ~seed:1 and c = det_rows wl ~seed:2 in
      let same f x y = List.map f x = List.map f y in
      let check name = check (wl.w_name ^ ": " ^ name) in
      check "verdicts match the generators" (List.for_all (fun d -> d.d_verdict = None) (a @ c));
      check "same seed, byte-identical inputs" (same (fun d -> d.d_src) a b);
      check "same seed, identical fingerprints" (same (fun d -> d.d_fps) a b);
      check "same seed, identical counts" (same (fun d -> d.d_counts) a b);
      (* paper systems are fixed files; every generated source must change *)
      check "new seed, different sources"
        (List.for_all2 (fun x y -> (not x.d_generated) || x.d_src <> y.d_src) a c);
      check "new seed, same shape counts"
        (same (fun d -> List.filter (fun (k, _) -> List.mem k shape_keys) d.d_counts) a c))
    workloads;
  print_endline (if !ok then "determinism: ok" else "determinism: FAILED");
  exit (if !ok then 0 else 1)

(* -- identity --------------------------------------------------------------------------- *)

(* Which end-to-end metric each layer metric should move, on which
   workloads, and where it should stay put: (layer metrics, end-to-end
   metrics, moves on, stays on). *)
let moves =
  [ ("phase1.*, pointsto.*", "verdict_p50_ms, kloc_per_s", "wide", "deep, audit");
    ("minic.parse.*, ssair.lower.*, ir.instrs", "kloc_per_s", "wide", "");
    ( "ssair.mem2reg.*, ssair.verify.*, absint.*, phase3.*",
      "verdict_p50_ms",
      "deep; less on wide",
      "" );
    ("*.heap_growth_mb, *.alloc_mw", "peak_rss_mb", "deep mostly", "");
    ( "phase2.*, omega.queries, cert.*, checker.*",
      "verdict_p50_ms",
      "audit",
      "wide, deep (no obligations)" );
    ("report.self_ms", "verdict_p50_ms", "wide, edit", "");
    ("cache.hits, cache.hit_ratio, cache.disk_read_ms", "verdict_p50_ms", "edit", "wide, deep, audit");
    ("cache.entries_written, cache.disk_mb", "setup_s", "edit", "wide, deep, audit") ]

let meta () =
  let str = Printf.sprintf "%S" in
  Printf.printf
    "{\"ocaml\": %S, \"safeflow_version\": %S, \"cache_format\": %d, \"telemetry_schema\": %S, \
     \"fingerprint\": %S, \"cpu_probe_nominal_ms\": %g, \"fs_probe_nominal_ms\": %g, \"workloads\": [%s], \"moves\": [%s]}\n"
    Sys.ocaml_version Version.tool Cache.format_version Telemetry.stats_json_schema
    Fingerprint.version cal_nominal_ms fs_nominal_ms
    (String.concat ", "
       (List.map (fun w -> Printf.sprintf "{\"name\": %S, \"why\": %S}" w.w_name w.w_why) workloads))
    (String.concat ", "
       (List.map
          (fun (layer, e2e, on, off) ->
            Printf.sprintf "{\"layer\": %s, \"moves\": %s, \"on\": %s, \"not_on\": %s}" (str layer)
              (str e2e) (str on) (str off))
          moves))

(* -- command line -------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (wide|deep|audit|edit) --seed N --seconds S --trace 0|1\n\
    \       main.exe selftest | meta";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "selftest" ] -> selftest ()
  | [ "meta" ] -> meta ()
  | args ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let wl =
      match List.find_opt (fun w -> w.w_name = get "workload") workloads with
      | Some w -> w
      | None -> usage ()
    in
    let seed = int_of_string (get "seed") and seconds = float_of_string (get "seconds") in
    if seconds <= 0. then usage ();
    match get "trace" with
    | "0" -> untraced_run wl ~seed ~seconds
    | "1" -> traced_run wl ~seed ~seconds
    | _ -> usage ()

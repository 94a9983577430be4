(* Value-range abstract interpretation (lib/absint): interval lattice
   laws, widening termination, branch refinement via dead-branch
   detection, the precision-only guarantee on the five subject systems
   (absint-on findings are a fingerprint subset of absint-off), and the
   A1/A2 discharge evidence on generic_simplex. *)

open Safeflow
module Itv = Absint.Itv

let find_system name =
  let candidates =
    [ "../../../systems/" ^ name; "../../systems/" ^ name; "systems/" ^ name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate systems/" ^ name)

let itv = Alcotest.testable Itv.pp Itv.equal

(* -- interval lattice -------------------------------------------------- *)

(* a small but adversarial universe: Bot, points, finite ranges, and all
   half-open/overlapping shapes including the infinities *)
let universe =
  let bounds = [ Itv.MInf; Itv.Fin (-7); Itv.Fin 0; Itv.Fin 3; Itv.PInf ] in
  Itv.bot
  :: List.concat_map
       (fun lo ->
         List.filter_map
           (fun hi ->
             match (lo, hi) with
             | Itv.Fin a, Itv.Fin b when a > b -> None
             | Itv.PInf, _ | _, Itv.MInf -> None
             | _ -> Some (Itv.Iv (lo, hi)))
           bounds)
       bounds

let forall2 f = List.iter (fun a -> List.iter (fun b -> f a b) universe) universe

let test_lattice_laws () =
  List.iter
    (fun a ->
      Alcotest.check itv "join idempotent" a (Itv.join a a);
      Alcotest.check itv "meet idempotent" a (Itv.meet a a);
      Alcotest.(check bool) "leq reflexive" true (Itv.leq a a);
      Alcotest.(check bool) "bot below all" true (Itv.leq Itv.bot a);
      Alcotest.(check bool) "all below top" true (Itv.leq a Itv.top))
    universe;
  forall2 (fun a b ->
      Alcotest.check itv "join commutative" (Itv.join a b) (Itv.join b a);
      Alcotest.check itv "meet commutative" (Itv.meet a b) (Itv.meet b a);
      Alcotest.(check bool) "join is upper bound" true
        (Itv.leq a (Itv.join a b) && Itv.leq b (Itv.join a b));
      Alcotest.(check bool) "meet is lower bound" true
        (Itv.leq (Itv.meet a b) a && Itv.leq (Itv.meet a b) b);
      (* absorption ties join and meet into one lattice *)
      Alcotest.check itv "absorption" a (Itv.meet a (Itv.join a b));
      Alcotest.check itv "absorption'" a (Itv.join a (Itv.meet a b)))

let test_widen_narrow () =
  forall2 (fun a b ->
      let w = Itv.widen a b in
      Alcotest.(check bool) "widen covers join" true (Itv.leq (Itv.join a b) w);
      (* narrowing never goes below the stable value it refines *)
      Alcotest.(check bool) "narrow sound" true (Itv.leq (Itv.meet a b) (Itv.narrow a b)));
  (* widening terminates: any strictly ascending chain stabilizes after
     at most one jump per bound *)
  List.iter
    (fun start ->
      let x = ref start in
      let steps = ref 0 in
      let stable = ref false in
      while (not !stable) && !steps < 5 do
        let next = Itv.add !x (Itv.const 1) in
        let w = Itv.widen !x (Itv.join !x next) in
        if Itv.equal w !x then stable := true else x := w;
        incr steps
      done;
      Alcotest.(check bool) "ascending chain stabilizes" true !stable)
    universe

let test_arith () =
  Alcotest.check itv "add" (Itv.range 4 6) (Itv.add (Itv.range 1 2) (Itv.range 3 4));
  Alcotest.check itv "sub" (Itv.range (-4) 1) (Itv.sub (Itv.range 1 2) (Itv.range 1 5));
  Alcotest.check itv "mul signs" (Itv.range (-10) 10)
    (Itv.mul (Itv.range (-2) 2) (Itv.range (-5) 5));
  Alcotest.check itv "neg" (Itv.range (-2) 1) (Itv.neg (Itv.range (-1) 2));
  Alcotest.check itv "add bot" Itv.bot (Itv.add Itv.bot (Itv.const 1));
  Alcotest.(check bool) "within" true (Itv.within (Itv.range 0 5) ~lo:0 ~hi:6);
  Alcotest.(check bool) "not within" false (Itv.within (Itv.range 0 7) ~lo:0 ~hi:6);
  Alcotest.(check bool) "bot within anything" true (Itv.within Itv.bot ~lo:0 ~hi:0);
  Alcotest.(check bool) "excludes zero" true (Itv.excludes_zero (Itv.range 1 9));
  Alcotest.(check bool) "contains zero" false (Itv.excludes_zero (Itv.range (-1) 9))

(* -- fixpoint on real programs ----------------------------------------- *)

(* clamp pattern: m is clamped into [0,3]; the branch on m > 7 can never
   be taken, so its control dependence on the non-core mode value is a
   false positive that the ranges remove *)
let clamp_src =
  {|
struct SHMData { int mode; int cmd; };
typedef struct SHMData SHMData;
SHMData *modeShm;
int shmLock;
extern void sendControl(int out);
void initComm()
/*** SafeFlow Annotation shminit ***/
{
  int shmid;
  void *shmStart;
  shmid = shmget(9000, sizeof(SHMData), 438);
  shmStart = shmat(shmid, (void *) 0, 0);
  modeShm = (SHMData *) shmStart;
  InitCheck(shmStart, sizeof(SHMData));
  /*** SafeFlow Annotation
       assume(shmvar(modeShm, sizeof(SHMData)))
       assume(noncore(modeShm)) ***/
}
int main()
{
  int m;
  int out;
  initComm();
  m = modeShm->mode;
  if (m < 0) { m = 0; }
  if (m > 3) { m = 3; }
  out = 1;
  if (m > 7) { out = 2; }
  /*** SafeFlow Annotation assert(safe(out)) ***/
  sendControl(out);
  return 0;
}
|}

let test_widening_terminates_on_loop () =
  (* unbounded counter loop: only widening makes the fixpoint finite *)
  let src =
    {|
int spin(int n)
{
  int i;
  int acc;
  acc = 0;
  i = 0;
  while (i < n) {
    acc = acc + 2;
    i = i + 1;
  }
  return acc;
}
int main() { return spin(50); }
|}
  in
  let p = Driver.prepare_source ~file:"loop.c" src in
  let ai = Absint.analyze p.Driver.ir in
  Alcotest.(check bool) "fixpoint ran" true (Absint.iterations ai > 0);
  Alcotest.(check bool) "widening fired" true (Absint.widenings ai > 0);
  (* the pass budget in run_function is 100 ascending iterations; a
     terminating analysis stays far under it even with two functions *)
  Alcotest.(check bool) "iterations bounded" true (Absint.iterations ai < 200)

let test_branch_refinement_kills_branch () =
  let p = Driver.prepare_source ~file:"clamp.c" clamp_src in
  let ai = Absint.analyze p.Driver.ir in
  let main =
    List.find (fun f -> f.Ssair.Ir.fname = "main") p.Driver.ir.Ssair.Ir.funcs
  in
  (* after the two clamps, m is in [0,3]: the m > 7 branch has a decided
     (always false) condition, so exactly its then-arm is dead *)
  let dead =
    List.filter_map
      (fun b -> Absint.dead_branch ai ~fname:"main" ~bid:b.Ssair.Ir.bbid)
      main.Ssair.Ir.blocks
  in
  Alcotest.(check bool) "a decided branch exists" true (dead <> []);
  Alcotest.(check bool) "its then arm is dead" true
    (List.exists (fun d -> d = Absint.Dead_then) dead)

(* The frontend accepts a repeated function name.  Calls resolve to the
   first body, so only that body is analyzed; the later one is never
   called and must not borrow the first body's ranges. *)
let test_repeated_name_first_body () =
  let src =
    {|
int f(int a) { return a + 1; }
int f(int a) { return a * 2; }
int main() { return f(5); }
|}
  in
  let p = Driver.prepare_source ~file:"dup.c" src in
  let ai = Absint.analyze p.Driver.ir in
  let f_ret =
    List.find (fun (v : Absint.summary_view) -> v.Absint.sv_func = "f") (Absint.summary_views ai)
  in
  Alcotest.check itv "f's return is the first body's" (Itv.const 6) f_ret.Absint.sv_ret;
  match List.filter (fun f -> f.Ssair.Ir.fname = "f") p.Driver.ir.Ssair.Ir.funcs with
  | [ first; later ] ->
    let param (f : Ssair.Ir.func) =
      Option.get (Absint.range_of_sym (Absint.query_ctx ai f) ~at:f.Ssair.Ir.fentry "p_a")
    in
    Alcotest.check itv "first body: a from main's call" (Itv.const 5) (param first);
    Alcotest.check itv "later body: no recorded range" Itv.top (param later)
  | _ -> Alcotest.fail "expected two bodies named f"

(* -- report-level guarantees ------------------------------------------- *)

let analyze_with ~absint ?file src =
  Driver.analyze ~config:{ Config.default with absint } ?file src

let fingerprints (a : Driver.analysis) =
  let ctx = Fingerprint.ctx_of_program a.Driver.prepared.Driver.ir in
  List.sort_uniq compare (List.map fst (Fingerprint.of_report ctx a.Driver.report))

(* the engine and the dense-fixpoint oracle (Legacy_phase3) prune alike *)
let test_clamp_control_dep_pruned () =
  List.iter
    (fun (name, analyze) ->
      let off = analyze ~absint:false in
      let on = analyze ~absint:true in
      Alcotest.(check int)
        (name ^ ": control dep reported without ranges")
        1
        (List.length (Report.control_deps off.Driver.report));
      Alcotest.(check int)
        (name ^ ": control dep pruned with ranges")
        0
        (List.length (Report.control_deps on.Driver.report));
      (* the data-flow warning on the unchecked mode read must survive:
         pruning is restricted to control dependences *)
      Alcotest.(check int)
        (name ^ ": warnings unchanged")
        (List.length off.Driver.report.Report.warnings)
        (List.length on.Driver.report.Report.warnings))
    [ ("worklist", fun ~absint -> analyze_with ~absint ~file:"clamp.c" clamp_src);
      ( "legacy",
        fun ~absint ->
          Legacy_phase3.analyze ~config:{ Config.default with absint } ~file:"clamp.c"
            clamp_src ) ]

let all_systems =
  [ "figure2.c"; "ip_controller.c"; "double_ip.c"; "car_follow.c";
    "generic_simplex.c" ]

let test_systems_fingerprint_subset () =
  List.iter
    (fun name ->
      let src =
        let ic = open_in_bin (find_system name) in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let off = analyze_with ~absint:false ~file:name src in
      let on = analyze_with ~absint:true ~file:name src in
      let fps_on = fingerprints on and fps_off = fingerprints off in
      Alcotest.(check bool)
        (Fmt.str "%s: on-findings are a subset of off-findings" name)
        true
        (List.for_all (fun fp -> List.mem fp fps_off) fps_on))
    all_systems

let test_generic_simplex_discharges () =
  let a = Driver.analyze_file (find_system "generic_simplex.c") in
  let b = a.Driver.coverage.Coverage.cov_bounds in
  Alcotest.(check bool) "has A1/A2 obligations" true (b.Phase2.bs_total >= 1);
  Alcotest.(check bool) "at least one discharged by ranges" true
    (b.Phase2.bs_ranges >= 1);
  Alcotest.(check int) "none failed" 0 b.Phase2.bs_failed;
  Alcotest.(check bool) "Omega queries avoided" true (b.Phase2.bs_omega_avoided >= 1)

(* -- memo contract --------------------------------------------------------- *)

(* one unknown read guarding a deep if-nest, with a helper called on the
   way in: the deep shape of the benchmark, small enough for a unit test *)
let nested_ifs_src depth =
  let b = Buffer.create (depth * 48) in
  Buffer.add_string b
    "extern int read_sensor();\n\
     int scale(int v) { return v * 2; }\n\
     int main() {\n  int x;\n  int out;\n  x = scale(read_sensor());\n  out = 0;\n";
  for d = 1 to depth do
    Printf.bprintf b "if (x > %d) { out = %d;\n" d d
  done;
  for _ = 1 to depth do
    Buffer.add_string b "}\n"
  done;
  Buffer.add_string b "  return out;\n}\n";
  Buffer.contents b

let test_memo_once_per_function () =
  let p = Driver.prepare_source ~file:"nest.c" (nested_ifs_src 300) in
  let calls = Hashtbl.create 4 in
  let memo ~fname ~inputs_digest:_ compute =
    Hashtbl.replace calls fname (1 + Option.value ~default:0 (Hashtbl.find_opt calls fname));
    compute ()
  in
  let ai = Absint.analyze ~memo p.Driver.ir in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ ": memo calls") 1
        (Option.value ~default:0 (Hashtbl.find_opt calls name)))
    [ "main"; "scale" ];
  Alcotest.(check bool) "same views as without a memo" true
    (Absint.summary_views ai = Absint.summary_views (Absint.analyze p.Driver.ir))

let test_lazy_digest () =
  let p = Driver.prepare_source ~file:"nest.c" (nested_ifs_src 20) in
  let seen = ref [] in
  let memo ~fname:_ ~inputs_digest compute =
    seen := inputs_digest :: !seen;
    compute ()
  in
  ignore (Absint.analyze ~memo p.Driver.ir);
  Alcotest.(check bool) "memo called" true (!seen <> []);
  List.iter
    (fun d -> Alcotest.(check bool) "digest never forced" false (Lazy.is_val d))
    !seen;
  (* forced, it is the hex digest the cache keys on *)
  List.iter
    (fun d -> Alcotest.(check int) "hex digest" 32 (String.length (Lazy.force d)))
    !seen

let test_cached_views_identical () =
  List.iter
    (fun name ->
      let src =
        let ic = open_in_bin (find_system name) in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let p = Driver.prepare_source ~file:name src in
      let plain = Absint.summary_views (Absint.analyze p.Driver.ir) in
      let cache = Cache.create () in
      let views () =
        match Driver.stage_absint ~cache p with
        | Some ai -> Absint.summary_views ai
        | None -> Alcotest.fail "absint disabled by default config"
      in
      let cold = views () in
      let warm = views () in
      Alcotest.(check bool) (name ^ ": cold cache = no cache") true (cold = plain);
      Alcotest.(check bool) (name ^ ": warm cache = no cache") true (warm = plain))
    all_systems

let () =
  Alcotest.run "absint"
    [ ( "interval lattice",
        [ Alcotest.test_case "lattice laws" `Quick test_lattice_laws;
          Alcotest.test_case "widen/narrow" `Quick test_widen_narrow;
          Alcotest.test_case "arithmetic" `Quick test_arith ] );
      ( "fixpoint",
        [ Alcotest.test_case "widening terminates on counter loop" `Quick
            test_widening_terminates_on_loop;
          Alcotest.test_case "branch refinement decides clamp guard" `Quick
            test_branch_refinement_kills_branch;
          Alcotest.test_case "repeated name: first body" `Quick test_repeated_name_first_body ] );
      ( "reports",
        [ Alcotest.test_case "clamp control dep pruned, both engines" `Quick
            test_clamp_control_dep_pruned;
          Alcotest.test_case "five systems: on ⊆ off fingerprints" `Slow
            test_systems_fingerprint_subset;
          Alcotest.test_case "generic_simplex discharges via ranges" `Quick
            test_generic_simplex_discharges ] );
      ( "memo",
        [ Alcotest.test_case "one call per function" `Quick test_memo_once_per_function;
          Alcotest.test_case "digest stays lazy" `Quick test_lazy_digest;
          Alcotest.test_case "cached views identical" `Quick test_cached_views_identical ] ) ]

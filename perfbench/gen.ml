(* Seeded input generators for the benchmark, each paired with the
   findings it must produce.

   The expectations follow from how each program is built, never from
   running the analyzer: a generator that places one unmonitored
   non-core read knows the verdict holds exactly one
   W-UNMONITORED-READ.  They are the benchmark's correctness reference.

   Randomness comes from a 48-bit LCG, so a seed reproduces the same
   bytes on every host.  A seed changes names, constants and which
   kernels carry a planted defect; the shape of each program, and so
   its cost and its expected findings, depends on the workload's size
   knobs alone. *)

type expect = {
  codes : (string * int) list;  (* findings per diagnostic code, sorted *)
  planted_a1 : int;  (* out-of-bounds indices placed on purpose *)
  omega_only : int;  (* in-bounds obligations interval ranges cannot prove *)
}

type input = {
  label : string;  (* file label the analyzer sees *)
  src : string;
  expect : expect option;  (* [None]: paper system, checked against its baseline *)
}

let expect ?(planted_a1 = 0) ?(omega_only = 0) codes =
  { codes = List.sort compare (List.filter (fun (_, n) -> n > 0) codes); planted_a1; omega_only }

type rng = { mutable s : int }

let rng seed = { s = ((seed * 2654435761) lxor 0x5DEECE66D) land 0xFFFFFFFFFFFF }

let next r =
  r.s <- ((r.s * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  (r.s lsr 17) land 0x7FFFFFFF

let int r bound = next r mod bound

(* a four-decimal constant in [lo, lo + spread) *)
let const r lo spread = Printf.sprintf "%.4f" (lo +. (spread *. float_of_int (int r 10000) /. 10000.))

(* a sub-seed for the [k]th derived input: never 0, which {!Safeflow.Synth}
   reserves for its historical unseeded output *)
let derive seed k = 1 + (((seed * 1_000_003) + (k * 7919)) land 0x3FFFFFFF)

let pick r names = names.(int r (Array.length names))

(* -- wide: the library's own synthetic core component ------------------------ *)

(* [Synth.of_size n]: n workers over max 2 (n/4) regions, the first half
   of them monitored through [assume(core(...))]; each unmonitored worker
   reads its region once, and every worker feeds [assert(safe(total))]. *)
let synth_expect n =
  let monitored = ref 0 in
  for w = 0 to n - 1 do
    if float_of_int w < (0.5 *. float_of_int n) -. 1e-9 then incr monitored
  done;
  expect [ ("W-UNMONITORED-READ", n - !monitored); ("E-CRITICAL-DEP", 1) ]

let wide ~seed ~size ~count =
  List.init count (fun k ->
      {
        label = Printf.sprintf "wide_%d.c" k;
        src = Safeflow.Synth.of_size ~seed:(derive seed k) size;
        expect = Some (synth_expect size);
      })

(* -- deep: one unmonitored read guarding a deep [if] nest --------------------- *)

let region_names = [| "sensor"; "plant"; "feedbk"; "telem"; "probe"; "remote" |]
let field_names = [| "pos"; "vel"; "acc"; "tilt" |]

(* [main] reads one field of a non-core region without a monitor, then
   nests [depth] [if]s on strictly rising thresholds over that value, each
   assigning a constant to the critical output.  The output is therefore
   control-dependent on the read and data-independent of it, and no
   threshold is decided by an enclosing one. *)
let deep_program ~seed ~depth =
  let r = rng seed in
  let region = Printf.sprintf "%s%02d" (pick r region_names) (int r 100) in
  let field = pick r field_names in
  let b = Buffer.create (depth * 64) in
  let add fmt = Printf.bprintf b fmt in
  add "struct Frame { double pos; double vel; double acc; double tilt; long seq; };\n";
  add "typedef struct Frame Frame;\n\nFrame *%s;\n\nextern void sendControl(double v);\n\n" region;
  add "void initShm()\n/*** SafeFlow Annotation shminit ***/\n{\n  int id;\n  void *base;\n";
  add "  id = shmget(%d, sizeof(Frame), 438);\n" (5000 + int r 4000);
  add "  base = shmat(id, (void *) 0, 0);\n  %s = (Frame *) base;\n" region;
  add "  /*** SafeFlow Annotation\n       assume(shmvar(%s, sizeof(Frame)))\n" region;
  add "       assume(noncore(%s)) ***/\n}\n\n" region;
  add "int main()\n{\n  double x;\n  double out = %s;\n  initShm();\n" (const r 0. 1.);
  add "  x = %s->%s;\n" region field;
  (* positive thresholds: a negative literal would lower to one more
     instruction, and the IR size would change with the seed *)
  let threshold = ref 0. in
  for d = 1 to depth do
    threshold := !threshold +. 1. +. (float_of_int (int r 1000) /. 2000.);
    let ind = String.make (2 * d) ' ' in
    add "%sif (x > %.4f) {\n%s  out = %s;\n" ind !threshold ind (const r 0. 100.)
  done;
  for d = depth downto 1 do
    add "%s}\n" (String.make (2 * d) ' ')
  done;
  add "  /*** SafeFlow Annotation assert(safe(out)) ***/\n  sendControl(out);\n  return 0;\n}\n";
  Buffer.contents b

let deep ~seed ~depth ~count =
  List.init count (fun k ->
      {
        label = Printf.sprintf "deep_%d.c" k;
        src = deep_program ~seed:(derive seed k) ~depth;
        expect = Some (expect [ ("W-UNMONITORED-READ", 1); ("C-CONTROL-DEP", 1) ]);
      })

(* -- audit: array kernels whose bounds only Omega can prove -------------------- *)

(* Each kernel owns an [n]-element shared array and reads it once inside
   two nested loops, at an index affine in both loop variables under a
   relational bound:

   - shape 0: [a[i + j]] for [j < n - i];
   - shape 1: [a[j - i]] for [i <= j < n].

   Each variable's interval alone allows an index outside [0, n), so
   the range analysis cannot discharge the obligation and Omega must.
   A planted kernel loosens one bound by one ([j <= n - i], or reads
   [a[j - i - 1]]), so exactly one side of its obligation fails: one
   V-A1 finding. *)
let kernel_program ~seed ~kernels ~planted =
  let r = rng seed in
  (* the [p]th planted kernel has shape [p mod 2], so the seed picks
     which kernels carry a defect but not how many of each shape *)
  let plant = Array.make kernels false in
  let placed = ref 0 in
  while !placed < planted do
    let k = int r kernels in
    if k mod 2 = !placed mod 2 && not plant.(k) then begin
      plant.(k) <- true;
      incr placed
    end
  done;
  (* array sizes follow the kernel's position, not the seed *)
  let sizes = Array.init kernels (fun k -> 16 + (k * 29 mod 48)) in
  let b = Buffer.create (kernels * 400) in
  let add fmt = Printf.bprintf b fmt in
  for k = 0 to kernels - 1 do
    add "double *buf%d;\n" k
  done;
  add "\nextern void sendControl(double v);\n\n";
  add "void initBufs()\n/*** SafeFlow Annotation shminit ***/\n{\n  void *base;\n  char *cursor;\n  int id;\n";
  add "  id = shmget(%d, %d * sizeof(double), 438);\n" (7000 + int r 2000)
    (Array.fold_left ( + ) 0 sizes);
  add "  base = shmat(id, (void *) 0, 0);\n  cursor = (char *) base;\n";
  Array.iteri
    (fun k n ->
      add "  buf%d = (double *) cursor;\n" k;
      if k < kernels - 1 then add "  cursor = cursor + %d * sizeof(double);\n" n)
    sizes;
  add "  /*** SafeFlow Annotation\n";
  Array.iteri (fun k n -> add "       assume(shmvar(buf%d, %d * sizeof(double)))\n" k n) sizes;
  add "  ***/\n}\n\n";
  Array.iteri
    (fun k n ->
      let w = const r 0.5 1. in
      let inner, index =
        match (k mod 2, plant.(k)) with
        | 0, false -> (Printf.sprintf "j = 0; j < %d - i" n, "i + j")
        | 0, true -> (Printf.sprintf "j = 0; j <= %d - i" n, "i + j")
        | _, false -> (Printf.sprintf "j = i; j < %d" n, "j - i")
        | _, true -> (Printf.sprintf "j = i; j < %d" n, "j - i - 1")
      in
      add "double kern%d()\n{\n  double s = 0.0;\n  int i;\n  int j;\n" k;
      add "  for (i = 0; i < %d; i++) {\n    for (%s; j++) {\n" n inner;
      add "      s = s + buf%d[%s] * %s;\n    }\n  }\n  return s;\n}\n\n" k index w)
    sizes;
  add "int main()\n{\n  double t = 0.0;\n  initBufs();\n";
  for k = 0 to kernels - 1 do
    add "  t = t + kern%d();\n" k
  done;
  add "  sendControl(t);\n  return 0;\n}\n";
  Buffer.contents b

let audit_kernels ~seed ~kernels ~planted ~count =
  List.init count (fun k ->
      {
        label = Printf.sprintf "kernels_%d.c" k;
        src = kernel_program ~seed:(derive seed k) ~kernels ~planted;
        expect =
          Some
            (expect ~planted_a1:planted ~omega_only:(kernels - planted)
               [ ("V-A1", planted) ]);
      })

let paper_systems =
  [ "car_follow"; "double_ip"; "figure2"; "generic_simplex"; "ip_controller" ]

(* -- edit: a stream of one-function constant edits ------------------------------ *)

(* [Synth.of_size] helper chains end in [helper_<w>_2], whose body opens
   with [double y = x * C + ...].  An edit rewrites C in one helper: the
   function's digest changes, the taint structure and so the findings do
   not.  Each edit writes a constant no earlier edit used, so the source
   never returns to a state the cache has seen. *)
let edit_base ~seed ~size =
  {
    label = "edit.c";
    src = Safeflow.Synth.of_size ~seed:(derive seed 0) size;
    expect = Some (synth_expect size);
  }

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then raise Not_found else if matches i 0 then i else go (i + 1) in
  go from

type edits = { e_rng : rng; e_size : int; mutable e_count : int }

let edits ~seed ~size = { e_rng = rng (derive seed 1); e_size = size; e_count = 0 }

let apply_edit (e : edits) (inp : input) : input =
  e.e_count <- e.e_count + 1;
  let w = int e.e_rng e.e_size in
  let anchor = Printf.sprintf "double helper_%d_2(double x)\n{\n  double y = x * " w in
  let start = find_sub inp.src anchor 0 + String.length anchor in
  let stop = find_sub inp.src " + " start in
  let c = Printf.sprintf "%d.%06d" (1 + int e.e_rng 2) e.e_count in
  {
    inp with
    src =
      String.sub inp.src 0 start ^ c
      ^ String.sub inp.src stop (String.length inp.src - stop);
  }

(** Phase 3 (paper §3.3): value-flow analysis.

    Reads of unmonitored non-core shared memory produce [unsafe] values
    (each such read is a {e warning}); unsafeness propagates through the
    value-flow graph — SSA def-use edges, loads/stores resolved by the
    points-to analysis, call/return edges — and the analysis checks that
    no critical datum ([assert(safe(x))] annotations and implicit sinks
    such as the pid argument of [kill]) depends on an unsafe value.

    Monitoring functions are handled context-sensitively: each function is
    analyzed once per set of [assume(core(...))] assumptions accumulated
    along the call chain, which is the paper's "each function ... analyzed
    multiple times for different call sequences".  Control dependence on
    unsafe values is tracked separately (implicit flows through phis,
    conditional sinks and conditional stores) and reported as
    [Control_only] — the class the paper identifies as candidate false
    positives requiring value-flow-graph review (§3.4.1).

    This module holds what the propagation engine ({!Vfgraph}) shares
    with the rest of the tool: monitoring contexts, taint entities, the
    analysis state it fills, the root pairs it starts from, and the
    dependency collection that turns its final taint state into
    findings. *)

open Minic
module Offset = Pointsto.Offset

(* -- Monitoring contexts ------------------------------------------------------ *)

type assumption = Assume.assumption =
  | Aregion of string * int * int  (** region, byte range [lo, hi) assumed core *)
  | Anode of Pointsto.Node.t       (** memory object assumed core (recv buffers) *)

let pp_assumption = Assume.pp

module Ctx = struct
  type t = assumption list  (* sorted, deduplicated *)

  let empty : t = []
  let make l : t = List.sort_uniq compare l
  let union (a : t) (b : t) : t = List.sort_uniq compare (a @ b)
  let compare : t -> t -> int = compare

  let covers_region (ctx : t) region ~lo ~hi =
    List.exists
      (function Aregion (r, l, h) -> String.equal r region && l <= lo && hi <= h | _ -> false)
      ctx

  let covers_node (ctx : t) node =
    List.exists (function Anode n -> n = node | _ -> false) ctx

  let names (ctx : t) =
    List.map (function Aregion (r, _, _) -> r | Anode n -> Fmt.str "%a" Pointsto.Node.pp n) ctx
end

(* -- Taint entities ----------------------------------------------------------- *)

type entity =
  | Eval of string * Ctx.t * Ssair.Ir.vid
  | Eparam of string * Ctx.t * string
  | Eret of string * Ctx.t
  | Enode of Pointsto.Node.t
  | Eregion of string  (** a non-core region as a taint source *)

let pp_entity ppf = function
  | Eval (f, _, id) -> Fmt.pf ppf "%s:%%%d" f id
  | Eparam (f, _, p) -> Fmt.pf ppf "%s:param %s" f p
  | Eret (f, _) -> Fmt.pf ppf "%s:return" f
  | Enode n -> Fmt.pf ppf "mem %a" Pointsto.Node.pp n
  | Eregion r -> Fmt.pf ppf "non-core region %s" r

type origin = { parent : entity option; why : string }

(** Per-function control-dependence facts that do not depend on the
    monitoring context or the taint state: the undecided register-cond
    branches and the function's CDG.  Memoized in {!state} ([brinfos]):
    the engine walks the CDG's direct "controls" edges per pair when a
    branch condition becomes tainted, {!block_control_taint} walks them
    per pair, and only the branch conditions' taint is dynamic. *)
type brinfo = {
  br_branches : (Ssair.Ir.vid * Ssair.Ir.bid) list;
      (** blocks ending in [Cbr]/[Switch] on a register: the cond vid
          and the block *)
  br_cdg : Ssair.Cdg.t Lazy.t;
      (** computed the first time one of the branch conditions is
          found tainted, so other functions never pay for
          post-dominators *)
}

type state = {
  prog : Ssair.Ir.program;
  shm : Shm.t;
  p1 : Phase1.t;
  pts : Pointsto.t;
  config : Config.t;
  absint : Absint.t option;
      (** value ranges; decided branches exert no control dependence *)
  mutable data : (entity, origin) Hashtbl.t;  (** data-tainted entities *)
  mutable ctrl : (entity, origin) Hashtbl.t;  (** control-tainted entities *)
  pairs : (string * Ctx.t, unit) Hashtbl.t;  (** discovered (function, context) pairs *)
  warnings : (Loc.t * string, Report.warning) Hashtbl.t;
  brinfos : (string, brinfo) Hashtbl.t;
  fidx : (string, Ssair.Ir.func) Hashtbl.t;
      (** [Ssair.Ir.func_table prog]: first occurrence wins, as in
          [Ssair.Ir.find_func], which is a linear scan *)
  noncore_sockets : (string, unit) Hashtbl.t;
}

let data_tainted st e = Hashtbl.mem st.data e
let ctrl_tainted st e = Hashtbl.mem st.ctrl e

(* A conditional branch whose condition's value range decides the
   direction takes the same successor in every concrete execution, so it
   exerts no control dependence.  Pruning it is precision-only: findings
   can disappear, never appear. *)
let branch_decided st (f : Ssair.Ir.func) (b : Ssair.Ir.block) : bool =
  match st.absint with
  | None -> false
  | Some ai -> Absint.dead_branch ai ~fname:f.Ssair.Ir.fname ~bid:b.Ssair.Ir.bbid <> None

(** Memoized {!brinfo} of [f].  Pure with respect to the taint state. *)
let branch_info st (f : Ssair.Ir.func) : brinfo =
  match Hashtbl.find_opt st.brinfos f.fname with
  | Some bi -> bi
  | None ->
    let br_branches =
      List.filter_map
        (fun (b : Ssair.Ir.block) ->
          (* decided branches exert no control dependence *)
          if branch_decided st f b then None
          else
            match b.Ssair.Ir.termin with
            | Ssair.Ir.Cbr (Ssair.Ir.Vreg id, _, _)
            | Ssair.Ir.Switch (Ssair.Ir.Vreg id, _, _) ->
              Some (id, b.Ssair.Ir.bbid)
            | _ -> None)
        f.Ssair.Ir.blocks
    in
    let bi = { br_branches; br_cdg = lazy (Ssair.Cdg.compute f) } in
    Hashtbl.replace st.brinfos f.fname bi;
    bi

(* -- Resolving annotations ----------------------------------------------------- *)

(** Assumptions contributed by function [f]'s own [assume(core(...))]
    annotations (see {!Assume}). *)
let own_assumptions st (f : Ssair.Ir.func) : assumption list =
  Assume.of_func ~prog:st.prog ~shm:st.shm ~p1:st.p1 ~pts:st.pts f

(** Non-core sockets: [assume(noncore(s))] clauses naming something that is
    not a shared-memory region (message-passing extension §3.4.3). *)
let collect_noncore_sockets st =
  List.iter
    (fun (f : Ssair.Ir.func) ->
      List.iter
        (function
          | Annot.Noncore name when Shm.region st.shm name = None ->
            Hashtbl.replace st.noncore_sockets name ()
          | _ -> ())
        f.Ssair.Ir.fannot)
    st.prog.Ssair.Ir.funcs

(* -- Taint queries ------------------------------------------------------------------ *)

(** Blocks transitively control-dependent on the branches whose
    condition vid satisfies [tainted]: the union of those branches'
    closures under the CDG "controls" relation.  One DFS over the direct
    edges from each such branch block, with a seen mark shared across
    branches, so each block is visited once: everything reachable from
    a seen block is seen by the time its walk returns.  A branch block
    is itself included only when it is reached from one (a loop whose
    header controls itself). *)
let controlled_blocks (bi : brinfo) ~tainted : (Ssair.Ir.bid, unit) Hashtbl.t =
  let closed = Hashtbl.create 8 in
  let walk =
    lazy
      (let c = Lazy.force bi.br_cdg in
       let seen = Array.make (Array.length c.Ssair.Cdg.slot_bid) false in
       let rec go s =
         List.iter
           (fun d ->
             if not seen.(d) then begin
               seen.(d) <- true;
               Hashtbl.replace closed c.Ssair.Cdg.slot_bid.(d) ();
               go d
             end)
           c.Ssair.Cdg.ctrl_slots.(s)
       in
       fun bid -> go (c.Ssair.Cdg.slot_of bid))
  in
  List.iter (fun (id, bid) -> if tainted id then Lazy.force walk bid) bi.br_branches;
  closed

(** Blocks' tainted-control status under [ctx]: block → is any
    controlling branch condition tainted (data or ctrl)? *)
let block_control_taint st (f : Ssair.Ir.func) ctx : (Ssair.Ir.bid, unit) Hashtbl.t =
  controlled_blocks (branch_info st f) ~tainted:(fun id ->
      let e = Eval (f.fname, ctx, id) in
      data_tainted st e || ctrl_tainted st e)

let value_entity fname ctx (v : Ssair.Ir.value) : entity option =
  match v with
  | Ssair.Ir.Vreg id -> Some (Eval (fname, ctx, id))
  | Ssair.Ir.Vparam p -> Some (Eparam (fname, ctx, p))
  | _ -> None

(* -- Sinks and asserts ------------------------------------------------------------ *)

(** Stable opaque identity of a taint entity — the [p_key] of witness
    steps.  Entities are pure data, so the digest is deterministic
    across runs and processes. *)
let entity_key (e : entity) : string =
  Digest.to_hex (Digest.string (Marshal.to_string e [ Marshal.No_sharing ]))

(** Walk first-taint origins from [e] back to a source, producing the
    structured witness path, source first.  Each step records the entity
    it came from ([p_parent]), so consecutive steps form a checkable
    chain; the legacy string trace is derived from this path
    ({!Report.path_strings}), keeping both in lockstep. *)
let path_of table e : Report.path_step list =
  let step e why parent =
    {
      Report.p_desc = Fmt.str "%a" pp_entity e;
      p_why = why;
      p_key = entity_key e;
      p_parent = Option.map entity_key parent;
    }
  in
  let rec go e acc depth =
    if depth > 32 then Report.synthetic_step "..." :: acc
    else
      match Hashtbl.find_opt table e with
      | Some { parent = Some p; why } -> go p (step e (Some why) (Some p) :: acc) (depth + 1)
      | Some { parent = None; why } -> step e (Some why) None :: acc
      | None -> step e None None :: acc
  in
  go e [] 0

(** After the fixpoint: evaluate assert(safe(x)) annotations and implicit
    critical sinks, producing dependencies. *)
let collect_dependencies st : Report.dependency list =
  let deps = ref [] in
  let add kind sink f loc path =
    deps :=
      {
        Report.d_kind = kind;
        d_sink = sink;
        d_func = f;
        d_loc = loc;
        d_trace = Report.path_strings path;
        d_path = path;
      }
      :: !deps
  in
  let check_value f ctx blk_ctrl bid loc sink (v : Ssair.Ir.value) =
    let fname = f.Ssair.Ir.fname in
    match value_entity fname ctx v with
    | Some e when data_tainted st e -> add Report.Data sink fname loc (path_of st.data e)
    | Some e when st.config.Config.control_deps && ctrl_tainted st e ->
      add Report.Control_only sink fname loc (path_of st.ctrl e)
    | Some e ->
      (* pointer-typed critical data: unsafe data reachable from it? *)
      let is_ptr =
        match v with
        | Ssair.Ir.Vreg id -> (
          match Hashtbl.find_opt (Ssair.Ir.def_table f) id with
          | Some (Ssair.Ir.Def_instr (i, _)) -> Minic.Ty.is_pointer i.Ssair.Ir.ity
          | Some (Ssair.Ir.Def_phi (p, _)) -> Minic.Ty.is_pointer p.Ssair.Ir.pty
          | None -> false)
        | _ -> false
      in
      if is_ptr then begin
        let reach = Pointsto.reachable st.pts (Pointsto.points_to st.pts f v) in
        match
          Pointsto.Tset.fold
            (fun tgt acc ->
              match acc with
              | Some _ -> acc
              | None ->
                let ne = Enode tgt.Pointsto.Target.node in
                if data_tainted st ne then Some ne else None)
            reach None
        with
        | Some ne ->
          add Report.Data sink f.Ssair.Ir.fname loc
            (path_of st.data ne @ [ Report.synthetic_step "reachable from critical pointer" ])
        | None -> ()
      end;
      if
        st.config.Config.control_deps
        && (not (data_tainted st e))
        && (not (ctrl_tainted st e))
        && Hashtbl.mem blk_ctrl bid
      then
        add Report.Control_only sink fname loc
          [
            Report.synthetic_step
              "critical site executes under a condition influenced by non-core values";
          ]
    | None ->
      if st.config.Config.control_deps && Hashtbl.mem blk_ctrl bid then
        add Report.Control_only sink fname loc
          [
            Report.synthetic_step
              "critical site executes under a condition influenced by non-core values";
          ]
  in
  (* sink sites are context-independent; collect them once per function
     (in block/instruction order — the order of the [check_value] calls
     below drives first-win dedup) and skip the control-taint closure
     for the many pairs of functions with no sinks at all *)
  let sites_memo : (string, (Ssair.Ir.bid * Loc.t * string * Ssair.Ir.value) list) Hashtbl.t =
    Hashtbl.create 32
  in
  (* the sink list is tiny but consulted once per call instruction *)
  let sink_tbl = Hashtbl.create 16 in
  List.iter
    (fun (callee, indices) ->
      if not (Hashtbl.mem sink_tbl callee) then Hashtbl.add sink_tbl callee indices)
    st.config.Config.critical_sinks;
  let sites_of (f : Ssair.Ir.func) =
    match Hashtbl.find_opt sites_memo f.Ssair.Ir.fname with
    | Some l -> l
    | None ->
      let acc = ref [] in
      List.iter
        (fun (b : Ssair.Ir.block) ->
          List.iter
            (fun (i : Ssair.Ir.instr) ->
              match i.Ssair.Ir.idesc with
              | Ssair.Ir.Annotation { clause = Annot.Assert_safe x; aval = Some v } ->
                acc :=
                  (b.Ssair.Ir.bbid, i.Ssair.Ir.iloc, Fmt.str "assert(safe(%s))" x, v)
                  :: !acc
              | Ssair.Ir.Call { callee; args; _ } -> (
                match Hashtbl.find_opt sink_tbl callee with
                | Some indices ->
                  List.iter
                    (fun k ->
                      match List.nth_opt args k with
                      | Some arg ->
                        acc :=
                          ( b.Ssair.Ir.bbid,
                            i.Ssair.Ir.iloc,
                            Fmt.str "argument %d of %s" k callee,
                            arg )
                          :: !acc
                      | None -> ())
                    indices
                | None -> ())
              | _ -> ())
            b.Ssair.Ir.instrs)
        f.Ssair.Ir.blocks;
      let l = List.rev !acc in
      Hashtbl.replace sites_memo f.Ssair.Ir.fname l;
      l
  in
  Hashtbl.iter
    (fun (fname, ctx) () ->
      match Hashtbl.find_opt st.fidx fname with
      | None -> ()
      | Some f -> (
        match sites_of f with
        | [] -> ()
        | sites ->
          let blk_ctrl = block_control_taint st f ctx in
          List.iter
            (fun (bid, loc, sink, v) -> check_value f ctx blk_ctrl bid loc sink v)
            sites))
    st.pairs;
  (* deduplicate by (sink, loc, kind), then emit in the canonical
     (file, line, code) order — [st.pairs] is a hash table, so the raw
     collection order is layout-dependent *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : Report.dependency) ->
      let key = (d.d_sink, d.d_loc, d.d_kind) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.rev !deps)
  |> List.stable_sort Report.compare_dependency

(* -- Results and shared entry points ------------------------------------------------- *)

type result = {
  warnings : Report.warning list;
  dependencies : Report.dependency list;
  passes : int;  (** propagation passes: 1 for {!Vfgraph}'s single drain *)
  pair_count : int;
  engine_stats : (string * int) list;
      (** {!Vfgraph}'s entity, context, edge and worklist counters,
          surfaced in {!Report.t.stats} *)
  taint_state : state;  (** exposed for the value-flow-graph export *)
}

(** Fresh analysis state, filled by {!Vfgraph} (or restored from the
    phase-3 cache tier by {!Driver}). *)
let make_state ~(config : Config.t) ?absint (prog : Ssair.Ir.program) (shm : Shm.t)
    (p1 : Phase1.t) (pts : Pointsto.t) : state =
  let st =
    {
      prog;
      shm;
      p1;
      pts;
      config;
      absint;
      data = Hashtbl.create 256;
      ctrl = Hashtbl.create 256;
      pairs = Hashtbl.create 32;
      warnings = Hashtbl.create 32;
      brinfos = Hashtbl.create 16;
      fidx = Ssair.Ir.func_table prog;
      noncore_sockets = Hashtbl.create 4;
    }
  in
  collect_noncore_sockets st;
  st

(** Root (function, context) pairs: main with its own assumptions, plus
    every non-exempt function that is never called (library entry
    points). *)
let root_pairs st : (Ssair.Ir.func * Ctx.t) list =
  let prog = st.prog in
  let roots = ref [] in
  let add_root (f : Ssair.Ir.func) =
    roots := (f, Ctx.make (own_assumptions st f)) :: !roots
  in
  (match Hashtbl.find_opt st.fidx "main" with
  | Some m -> add_root m
  | None -> ());
  let called = Hashtbl.create 32 in
  List.iter
    (fun (f : Ssair.Ir.func) ->
      List.iter
        (fun (b : Ssair.Ir.block) ->
          List.iter
            (fun (i : Ssair.Ir.instr) ->
              match i.Ssair.Ir.idesc with
              | Ssair.Ir.Call { callee; _ } -> Hashtbl.replace called callee ()
              | _ -> ())
            b.Ssair.Ir.instrs)
        f.Ssair.Ir.blocks)
    prog.Ssair.Ir.funcs;
  List.iter
    (fun (f : Ssair.Ir.func) ->
      if
        (not (Hashtbl.mem called f.Ssair.Ir.fname))
        && (not (String.equal f.Ssair.Ir.fname "main"))
        && not (Phase1.is_exempt st.p1 f.Ssair.Ir.fname)
      then add_root f)
    prog.Ssair.Ir.funcs;
  List.rev !roots

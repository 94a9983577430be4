(** Sparse worklist phase-3 engine (see the interface for the contract).

    Structure: entities are interned to dense ids; per-entity taint bits
    live in packed bitsets ({!Bitset}), origins in parallel int arrays,
    and the successor edges in one flat edge array that is finalized
    into a CSR adjacency ({!Csr}) right before the single worklist
    drain.  Each newly discovered (function, context) pair is translated
    once by {!walk_pair} — a transcription of the dense-fixpoint rules
    (the test oracle's [analyze_pair]) where every dynamic taint test
    becomes a static edge — and {!drain} runs the worklist to closure.
    The final interned taint state is poured back into a
    {!Phase3.state} so that {!Phase3.collect_dependencies} (and the DOT
    export) see the shared state shape.

    With a cache attached, each pair becomes a flat symbolic {e edge
    block} ({!build_pair_block}) that {!replay} applies in recorded
    order: a block is pure data keyed only by what the builder reads,
    so it can be cached content-addressed across runs.  Without one,
    the walk emits straight into the graph ({!direct_sink}).  Both
    paths produce the same operation sequence in the same order, which
    is what makes cold, warm and cache-less reports bit-identical.

    Flat layout: blocks carry small local value tables
    ([b_strs]/[b_ctxs]/[b_nodes]/[b_whys]) plus two int arrays — one
    packed descriptor per entity, one packed word per operation — so a
    cache hit deserializes straight into ints and replay translates
    local to global ids with four [Array.map]s instead of re-hashing
    structural values.  Entity keys, (function, context) pair keys and
    worklist items are all single ints; the taint hot path does no
    boxed hashing at all. *)

open Minic
module Offset = Pointsto.Offset

(* Edge modes: how taint crosses the edge and which origin is recorded.
   [mdata]/[mctrl] mirror the oracle's data→data / ctrl→ctrl flows with the
   source as trace parent; [mboth] fuses a data and a ctrl edge sharing
   destination and reason (the overwhelmingly common pairing);
   [many_ctrl] mirrors the control-dependence rules, which fire on either
   taint kind and record no parent.  Encoded in 2 bits of the edge info
   word: [info = mode lor (why_id lsl 2)]. *)
let mdata = 0

let mctrl = 1

let mboth = 2

let many_ctrl = 3

(* -- Packed encodings ----------------------------------------------------------- *)

(* Entity key: tag(3) | a(20) | b(19) | c(20) — 62 bits, so the packed
   word stays a non-negative OCaml int.  The same layout serves block-
   local descriptors (a/b/c index the block's local tables) and global
   keys (a/b/c are global intern ids).  Tags: 0 Eval(fname,ctx,vid),
   1 Eparam(fname,ctx,pname), 2 Eret(fname,ctx), 3 Enode, 4 Eregion. *)
let pack_key tag a b c =
  if a lor c > 0xFFFFF || b > 0x7FFFF then failwith "Vfgraph: packed entity key overflow";
  tag lor (a lsl 3) lor (b lsl 23) lor (c lsl 42)

let key_tag k = k land 7
let key_a k = (k lsr 3) land 0xFFFFF
let key_b k = (k lsr 23) land 0x7FFFF
let key_c k = (k lsr 42) land 0xFFFFF

(* Operation word: kind(2) | x(20) | y(20) | mode(2) | why(17) — 61 bits.
   Kinds: 0 edge (x src, y dst), 1 seed (x dst, y trace parent),
   2 warning (x indexes [b_warns]), 3 discover (x local fname string id,
   y local context id). *)
let pack_op kind x y m w =
  if x lor y > 0xFFFFF || w > 0x1FFFF then failwith "Vfgraph: packed op overflow";
  kind lor (x lsl 2) lor (y lsl 22) lor (m lsl 42) lor (w lsl 44)

let op_kind o = o land 3
let op_x o = (o lsr 2) land 0xFFFFF
let op_y o = (o lsr 22) land 0xFFFFF
let op_mode o = (o lsr 42) land 3
let op_why o = (o lsr 44) land 0x1FFFF

(* Growable int buffer (amortized O(1) push, no boxing). *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max n 16) 0; len = 0 }

  let push t v =
    let n = t.len in
    if n = Array.length t.a then begin
      let a' = Array.make (2 * n) 0 in
      Array.blit t.a 0 a' 0 n;
      t.a <- a'
    end;
    Array.unsafe_set t.a n v;
    t.len <- n + 1

  let to_array t = Array.sub t.a 0 t.len
end

(* -- CSR adjacency --------------------------------------------------------------- *)

module Csr = struct
  type t = { off : int array; dst : int array; info : int array }

  (* Counting sort of the flat edge arrays into row-major adjacency.
     Row iteration order must reproduce the cons-list engine it
     replaces, which prepended each new edge and iterated head-first —
     i.e. each row reads in {e reverse insertion order}.  So after the
     prefix sums set [cur.(s)] to the end of row [s], edges are scanned
     {e forward} and placed back-to-front: the first-inserted edge lands
     at the row's end, the last at its start.  First-win taint origins
     (and hence witness traces) depend on this order. *)
  let build ~n ~(src : int array) ~(dst : int array) ~(info : int array) ~len =
    let off = Array.make (n + 1) 0 in
    for i = 0 to len - 1 do
      let s = Array.unsafe_get src i in
      Array.unsafe_set off s (Array.unsafe_get off s + 1)
    done;
    let cur = Array.make n 0 in
    let total = ref 0 in
    for s = 0 to n - 1 do
      let c = Array.unsafe_get off s in
      Array.unsafe_set off s !total;
      total := !total + c;
      (* row end *)
      Array.unsafe_set cur s !total
    done;
    off.(n) <- !total;
    let cdst = Array.make len 0 and cinfo = Array.make len 0 in
    for i = 0 to len - 1 do
      let s = Array.unsafe_get src i in
      let p = Array.unsafe_get cur s - 1 in
      Array.unsafe_set cur s p;
      Array.unsafe_set cdst p (Array.unsafe_get dst i);
      Array.unsafe_set cinfo p (Array.unsafe_get info i)
    done;
    { off; dst = cdst; info = cinfo }

  let degree t i = t.off.(i + 1) - t.off.(i)

  let row t i =
    List.init (degree t i) (fun j ->
        (t.dst.(t.off.(i) + j), t.info.(t.off.(i) + j)))
end

(* -- Blocks ----------------------------------------------------------------------- *)

(* A pair's symbolic edge block, fully flattened: [b_ents] holds one
   packed descriptor per distinct entity (indices into the local
   tables), [b_ops] one packed word per operation (entity operands index
   [b_ents]).  This is the cacheable unit: plain strings, contexts,
   nodes, warnings and ints — no closures, no sharing. *)
type block = {
  b_strs : string array;
  b_ctxs : Phase3.Ctx.t array;
  b_nodes : Pointsto.Node.t array;
  b_whys : string array;
  b_ents : int array;
  b_ops : int array;
  b_warns : Report.warning array;
}

(* Per-function facts that do not depend on the monitoring context. *)
type finfo = {
  fi_func : Ssair.Ir.func;
  fi_blocks : Ssair.Ir.block option array;  (** indexed by block id *)
  fi_maxbid : int;  (** max block id — sizes per-pair bid-indexed scratch *)
  fi_bi : Phase3.brinfo;  (** undecided branches + CDG closures (shared memo) *)
  fi_nvals : int;  (** max SSA vid + 1 — sizes the builder's vid→entity cache *)
}

(* -- Static why table ---------------------------------------------------------- *)

(* Origin reasons known at compile time are referenced by their index in
   this table; a block's local why table holds only dynamically
   formatted reasons, and its indices are offset by [n_static_whys].
   The table is part of the cached "pair" block format — reordering or
   editing an entry requires a {!Cache.format_version} bump. *)
let static_whys =
  [|
    "phi merge";
    "phi merges paths controlled by an unsafe condition";
    "read of core region holding an unsafe value";
    "load from unsafe memory object";
    "load from control-unsafe memory object";
    "load through unsafe pointer";
    "unsafe value stored";
    "control-unsafe value stored";
    "store controlled by an unsafe condition";
    "arithmetic";
    "cast";
    "address arithmetic";
    "call controlled by an unsafe condition";
    "data received from a non-core component";
    "returned";
    "returned value selected by an unsafe condition";
  |]

let n_static_whys = Array.length static_whys

(* indices into [static_whys] *)
let w_phi = 0
let w_phi_ctrl = 1
let w_core_read = 2
let w_load_unsafe = 3
let w_load_ctrl_unsafe = 4
let w_load_ptr = 5
let w_store_d = 6
let w_store_c = 7
let w_store_ctrl = 8
let w_arith = 9
let w_cast = 10
let w_addr = 11
let w_call_ctrl = 12
let w_recv = 13
let w_ret = 14
let w_ret_ctrl = 15

type t = {
  st : Phase3.state;  (** receptacle for pairs/warnings/taints *)
  ctxs : Intern.Ctx.store;
  strs : string Intern.t;
  nodes : Pointsto.Node.t Intern.t;
  whys : string Intern.t;  (** origin reasons, so per-entity whys are ints *)
  static_wids : int array;  (** global why id per {!static_whys} index *)
  keys : Intern.Packed.t;  (** packed entity key → dense entity id *)
  finfos : (string, finfo) Hashtbl.t;
  pairs_seen : Intern.Packed.t;  (** packed (fname id lsl 20) lor ctx id *)
  pending : (Ssair.Ir.func * int) Queue.t;  (** discovered, to build *)
  funcs_by_name : (string, Ssair.Ir.func) Hashtbl.t;
      (** [Ssair.Ir.find_func] is a linear scan; call sites resolve
          callees once per visit, so index the program up front *)
  own_lists : (string, Phase3.Ctx.t) Hashtbl.t;
      (** canonical own-assumption context per function — needed at every
          call site *)
  p1_regs : (string, (Ssair.Ir.vid, Phase1.Rset.t) Hashtbl.t) Hashtbl.t;
      (** phase-1 register facts re-bucketed per function: the walk's
          per-instruction lookups hash an int instead of a
          [(fname, vid)] tuple.  Built once in {!create}; read-only. *)
  pts_regs : (string, (Ssair.Ir.vid, Pointsto.Tset.t) Hashtbl.t) Hashtbl.t;
      (** points-to register facts per function, same layout *)
  (* worklist FIFO of codes [entity id * 2 + (ctrl ? 1 : 0)]; drained
     once after all waves, so a plain append-only array suffices *)
  mutable wl : int array;
  mutable wl_head : int;
  mutable wl_tail : int;
  (* parallel per-entity arrays, grown together by {!ensure_cap} *)
  mutable rev : Phase3.entity array;
  data : Bitset.t;
  ctrl : Bitset.t;
  mutable d_parent : int array;  (** -1 = no parent *)
  mutable c_parent : int array;
  mutable d_why : int array;  (** why ids, valid iff the taint bit is set *)
  mutable c_why : int array;
  (* flat edge arrays in insertion order; finalized into [csr] once all
     blocks are replayed (no edges appear during the drain) *)
  mutable es : int array;
  mutable ed : int array;
  mutable einfo : int array;
  mutable n_edges : int;
  mutable csr : Csr.t;
  mutable n_pops : int;
  mutable n_pushes : int;
}

(* Counter inventory (registered at module init so the names exist in
   every stats snapshot, even as zeros). *)
let c_wl_pushes = Telemetry.counter "vf.worklist_pushes"
let c_wl_pops = Telemetry.counter "vf.worklist_pops"
let c_edges = Telemetry.counter "vf.edges_built"
let c_entities = Telemetry.counter "vf.entities"
let c_contexts = Telemetry.counter "vf.contexts"
let c_pair_replayed = Telemetry.counter "vf.pair_blocks_replayed"
let c_pair_built = Telemetry.counter "vf.pair_blocks_built"
let c_csr_build_us = Telemetry.counter "vf.csr_build_us"
let c_bitset_words = Telemetry.counter "vf.bitset_words"
let c_drain_edges_per_sec = Telemetry.counter "vf.drain_edges_per_sec"
let h_pair_build = Telemetry.histogram "pair.build"

let create st =
  let funcs_by_name = st.Phase3.fidx in
  let whys = Intern.create 64 in
  (* size the flat stores from the function count so typical runs never
     grow mid-build (≈10 entities and ≈15 edges per function in
     practice); everything still grows on demand for denser programs *)
  let nfuncs = Hashtbl.length st.Phase3.fidx in
  let ecap = max 1024 (10 * nfuncs) in
  let edgecap = max 1024 (14 * nfuncs) in
  let bucket tbl fname k v =
    let t =
      match Hashtbl.find_opt tbl fname with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.add tbl fname t;
        t
    in
    Hashtbl.replace t k v
  in
  let p1_regs = Hashtbl.create (2 * nfuncs) in
  Hashtbl.iter
    (fun (fname, vid) rs -> bucket p1_regs fname vid rs)
    st.Phase3.p1.Phase1.facts;
  let pts_regs = Hashtbl.create (2 * nfuncs) in
  Pointsto.fold_pts
    (fun k ts () ->
      match k with
      | Pointsto.Kreg (fname, vid) -> bucket pts_regs fname vid ts
      | _ -> ())
    st.Phase3.pts ();
  {
    st;
    funcs_by_name;
    own_lists = Hashtbl.create 64;
    p1_regs;
    pts_regs;
    ctxs = Intern.Ctx.create ();
    strs = Intern.create 64;
    nodes = Intern.create 64;
    whys;
    static_wids = Array.map (Intern.intern whys) static_whys;
    keys = Intern.Packed.create ecap;
    finfos = Hashtbl.create (2 * nfuncs);
    pairs_seen = Intern.Packed.create (2 * nfuncs);
    pending = Queue.create ();
    wl = Array.make (max 1024 (ecap / 2)) 0;
    wl_head = 0;
    wl_tail = 0;
    rev = Array.make ecap (Phase3.Eregion "");
    data = Bitset.create ecap;
    ctrl = Bitset.create ecap;
    d_parent = Array.make ecap (-1);
    c_parent = Array.make ecap (-1);
    d_why = Array.make ecap (-1);
    c_why = Array.make ecap (-1);
    es = Array.make edgecap 0;
    ed = Array.make edgecap 0;
    einfo = Array.make edgecap 0;
    n_edges = 0;
    csr = Csr.{ off = [| 0 |]; dst = [||]; info = [||] };
    n_pops = 0;
    n_pushes = 0;
  }

let ensure_cap g n =
  let cap = Array.length g.rev in
  if n > cap then begin
    let cap' = max 256 (max n (2 * cap)) in
    let grow_arr dummy a =
      let a' = Array.make cap' dummy in
      Array.blit a 0 a' 0 cap;
      a'
    in
    g.rev <- grow_arr (Phase3.Eregion "") g.rev;
    g.d_parent <- grow_arr (-1) g.d_parent;
    g.c_parent <- grow_arr (-1) g.c_parent;
    g.d_why <- grow_arr (-1) g.d_why;
    g.c_why <- grow_arr (-1) g.c_why;
    Bitset.ensure g.data cap';
    Bitset.ensure g.ctrl cap'
  end

(* -- Taint setting and propagation -------------------------------------------- *)

let data_tainted g eid = Bitset.get g.data eid
let ctrl_tainted g eid = Bitset.get g.ctrl eid

let wl_push g code =
  let n = g.wl_tail in
  if n = Array.length g.wl then begin
    let a' = Array.make (2 * n) 0 in
    Array.blit g.wl 0 a' 0 n;
    g.wl <- a'
  end;
  Array.unsafe_set g.wl n code;
  g.wl_tail <- n + 1

let set_data g eid ~parent ~why =
  if not (Bitset.get g.data eid) then begin
    Bitset.set g.data eid;
    g.d_parent.(eid) <- parent;
    g.d_why.(eid) <- why;
    g.n_pushes <- g.n_pushes + 1;
    wl_push g (eid * 2)
  end

let set_ctrl g eid ~parent ~why =
  if not (Bitset.get g.ctrl eid) then begin
    Bitset.set g.ctrl eid;
    g.c_parent.(eid) <- parent;
    g.c_why.(eid) <- why;
    g.n_pushes <- g.n_pushes + 1;
    wl_push g ((eid * 2) + 1)
  end

(** Append an edge and replay the source's current taint across it, so
    edges built after their source was tainted still fire.  [why] is a
    global why id. *)
let add_edge g src dst mode why =
  let n = g.n_edges in
  if n = Array.length g.es then begin
    let grow a =
      let a' = Array.make (2 * n) 0 in
      Array.blit a 0 a' 0 n;
      a'
    in
    g.es <- grow g.es;
    g.ed <- grow g.ed;
    g.einfo <- grow g.einfo
  end;
  Array.unsafe_set g.es n src;
  Array.unsafe_set g.ed n dst;
  Array.unsafe_set g.einfo n (mode lor (why lsl 2));
  g.n_edges <- n + 1;
  if mode = mdata then begin
    if data_tainted g src then set_data g dst ~parent:src ~why
  end
  else if mode = mctrl then begin
    if ctrl_tainted g src then set_ctrl g dst ~parent:src ~why
  end
  else if mode = mboth then begin
    if data_tainted g src then set_data g dst ~parent:src ~why;
    if ctrl_tainted g src then set_ctrl g dst ~parent:src ~why
  end
  else if data_tainted g src || ctrl_tainted g src then set_ctrl g dst ~parent:(-1) ~why

(* All blocks are replayed (hence all edges exist) before the single
   drain, so the CSR is finalized exactly once in between. *)
let finalize_csr g =
  let t0 = Telemetry.now_ns () in
  g.csr <-
    Csr.build ~n:(Intern.Packed.length g.keys) ~src:g.es ~dst:g.ed ~info:g.einfo
      ~len:g.n_edges;
  Telemetry.add c_csr_build_us
    (Int64.to_int (Int64.div (Int64.sub (Telemetry.now_ns ()) t0) 1000L))

let drain g =
  let t0 = Telemetry.now_ns () in
  let traversed = ref 0 in
  let off = g.csr.Csr.off and dst = g.csr.Csr.dst and info = g.csr.Csr.info in
  while g.wl_head < g.wl_tail do
    let code = Array.unsafe_get g.wl g.wl_head in
    g.wl_head <- g.wl_head + 1;
    g.n_pops <- g.n_pops + 1;
    let eid = code lsr 1 in
    let lo = Array.unsafe_get off eid and hi = Array.unsafe_get off (eid + 1) in
    traversed := !traversed + (hi - lo);
    if code land 1 = 0 then
      for j = lo to hi - 1 do
        let w = Array.unsafe_get info j in
        let m = w land 3 in
        if m = mdata || m = mboth then
          set_data g (Array.unsafe_get dst j) ~parent:eid ~why:(w lsr 2)
        else if m = many_ctrl then
          set_ctrl g (Array.unsafe_get dst j) ~parent:(-1) ~why:(w lsr 2)
      done
    else
      for j = lo to hi - 1 do
        let w = Array.unsafe_get info j in
        let m = w land 3 in
        if m = mctrl || m = mboth then
          set_ctrl g (Array.unsafe_get dst j) ~parent:eid ~why:(w lsr 2)
        else if m = many_ctrl then
          set_ctrl g (Array.unsafe_get dst j) ~parent:(-1) ~why:(w lsr 2)
      done
  done;
  let dur_ns = Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0) in
  if Telemetry.enabled () && dur_ns > 0 then
    Telemetry.add c_drain_edges_per_sec (!traversed * 1_000_000_000 / dur_ns)

(* -- Static per-function facts ------------------------------------------------- *)

(* [own_list]/[finfo] memoize into [g] (and [Phase3.branch_info] into
   the shared state). *)

let own_list g (f : Ssair.Ir.func) : Phase3.Ctx.t =
  match Hashtbl.find_opt g.own_lists f.Ssair.Ir.fname with
  | Some l -> l
  | None ->
    let l = Phase3.Ctx.make (Phase3.own_assumptions g.st f) in
    Hashtbl.replace g.own_lists f.Ssair.Ir.fname l;
    l

let finfo g (f : Ssair.Ir.func) : finfo =
  match Hashtbl.find_opt g.finfos f.Ssair.Ir.fname with
  | Some fi -> fi
  | None ->
    let fi_bi = Phase3.branch_info g.st f in
    let nvals = ref 0 in
    let maxbid = ref (-1) in
    List.iter
      (fun (b : Ssair.Ir.block) ->
        if b.Ssair.Ir.bbid > !maxbid then maxbid := b.Ssair.Ir.bbid;
        List.iter
          (fun (p : Ssair.Ir.phi) ->
            if p.Ssair.Ir.pid >= !nvals then nvals := p.Ssair.Ir.pid + 1)
          b.Ssair.Ir.phis;
        List.iter
          (fun (i : Ssair.Ir.instr) ->
            if i.Ssair.Ir.iid >= !nvals then nvals := i.Ssair.Ir.iid + 1)
          b.Ssair.Ir.instrs)
      f.Ssair.Ir.blocks;
    let fi_blocks = Array.make (!maxbid + 1) None in
    (* later duplicate bbids win, as Hashtbl.replace did *)
    List.iter
      (fun (b : Ssair.Ir.block) -> fi_blocks.(b.Ssair.Ir.bbid) <- Some b)
      f.Ssair.Ir.blocks;
    let fi = { fi_func = f; fi_blocks; fi_maxbid = !maxbid; fi_bi; fi_nvals = !nvals } in
    Hashtbl.replace g.finfos f.Ssair.Ir.fname fi;
    fi

(* -- Pair discovery ------------------------------------------------------------ *)

let discover_pair g (f : Ssair.Ir.func) cid =
  let fid = Intern.intern g.strs f.Ssair.Ir.fname in
  if cid > 0xFFFFF then failwith "Vfgraph: context id overflow (packed pair key)";
  let pkey = (fid lsl 20) lor cid in
  let n = Intern.Packed.length g.pairs_seen in
  if Intern.Packed.intern g.pairs_seen pkey = n then begin
    Hashtbl.replace g.st.Phase3.pairs (f.Ssair.Ir.fname, Intern.Ctx.get g.ctxs cid) ();
    if not (Phase1.is_exempt g.st.Phase3.p1 f.Ssair.Ir.fname) then
      Queue.push (f, cid) g.pending
  end

(* -- Building one (function, context) pair ------------------------------------- *)

(* What the builder memoizes per distinct callee of the pair: the callee
   context, parameter/return entities and formatted reasons are the same
   at every call site, so they are computed once (including the one
   [Ctx.union]) instead of per site. *)
type cmemo =
  | Cdefined of {
      cm_params : int array;  (** entity id per parameter position *)
      cm_ret : int;
      cm_why_args : int array;  (** why id per parameter position *)
      cm_why_ret : int;
    }
  | Cextern of { cm_why_ext : int }

(* Where the walk sends what it finds.  Two implementations: the block
   sink interns into block-local tables and buffers packed ops (the
   cacheable path), the direct sink interns into the graph's global
   tables and applies each op immediately (the cache-less fast path —
   no block record, no replay translation). *)
type sink = {
  s_sid : string -> int;
  s_cid : Phase3.Ctx.t -> int;
  s_wid : string -> int;  (** dynamically formatted reason *)
  s_swids : int array;  (** why id per {!static_whys} index *)
  s_nid : Pointsto.Node.t -> int;
  s_ent_val : int -> int -> int -> int;  (** fname id, ctx id, vid *)
  s_ent_param : int -> int -> int -> int;  (** fname id, ctx id, param-name id *)
  s_ent_ret : int -> int -> int;  (** fname id, ctx id *)
  s_ent_node : int -> int;
  s_ent_region : int -> int;
  s_edge : int -> int -> int -> int -> unit;  (** src, dst, mode, why *)
  s_seed : int -> int -> int -> unit;  (** dst, parent, why *)
  s_warn : Report.warning -> unit;
  s_discover : Ssair.Ir.func -> int -> unit;  (** callee, [s_cid] of its context *)
  s_callee_cid : Phase3.Ctx.t -> int -> Ssair.Ir.func -> int;
      (** caller context, caller [s_cid], callee — [s_cid] of the callee
          context (own assumptions, unioned with the caller context when
          context-sensitive).  The direct sink resolves this at the
          context-id level through the memoized {!Intern.Ctx.union},
          never materializing the union list. *)
  s_cmemo : Phase3.Ctx.t -> int -> string -> cmemo;
      (** caller context, caller [s_cid], callee name — the direct sink
          memoizes this across pairs (see {!direct_sink}) *)
  s_call_whys : int -> string -> int -> int array * int;
      (** callee [s_sid], name, arity — why ids for the per-argument and
          return-value reasons.  Context-independent, so the direct sink
          memoizes the formatted strings per callee string id. *)
  s_why_ext : string -> int;  (** "through external call" reason *)
}

(** Transcribe [f] under context [ctx] through [sk]; the static taint
    sources of the pair (unmonitored non-core reads, non-core recv
    buffers) become seeds.  Edge-for-rule correspondence with the
    oracle's [analyze_pair] is documented inline.

    With a block sink the only writes to [g] are the [finfos]/
    [own_lists] memo tables. *)
let walk_pair g (sk : sink) (f : Ssair.Ir.func) (ctx : Phase3.Ctx.t) ~self_cid : unit =
  let st = g.st in
  let config = st.Phase3.config in
  let env = st.Phase3.prog.Ssair.Ir.env in
  let fname = f.Ssair.Ir.fname in
  let fi = finfo g f in
  let sid = sk.s_sid in
  let wid = sk.s_wid in
  let sw = sk.s_swids in
  let edge = sk.s_edge in
  let seed = sk.s_seed in
  let self_fid = sid fname in
  (* vid → entity id, O(1) on the hottest entity kind *)
  let val_idx = Array.make (max fi.fi_nvals 1) (-1) in
  let eval vid =
    if vid < Array.length val_idx then begin
      let i = Array.unsafe_get val_idx vid in
      if i >= 0 then i
      else begin
        let i = sk.s_ent_val self_fid self_cid vid in
        Array.unsafe_set val_idx vid i;
        i
      end
    end
    else sk.s_ent_val self_fid self_cid vid
  in
  (* -1 = no entity (constants); avoids an option box per operand *)
  let value_eid (v : Ssair.Ir.value) =
    match v with
    | Ssair.Ir.Vreg id -> eval id
    | Ssair.Ir.Vparam p -> sk.s_ent_param self_fid self_cid (sid p)
    | _ -> -1
  in
  let node_ent n = sk.s_ent_node (sk.s_nid n) in
  let region_ent r = sk.s_ent_region (sid r) in
  (* per-function fact views (see [p1_regs]/[pts_regs]): register
     lookups hash an int; anything else falls back to the generic
     tuple-keyed path, byte-for-byte equivalent *)
  let fn_p1regs = Hashtbl.find_opt g.p1_regs fname in
  let fn_ptsregs = Hashtbl.find_opt g.pts_regs fname in
  let shm_of (v : Ssair.Ir.value) =
    match v with
    | Ssair.Ir.Vreg id -> (
      match fn_p1regs with
      | Some t -> Option.value ~default:Phase1.Rset.empty (Hashtbl.find_opt t id)
      | None -> Phase1.Rset.empty)
    | _ -> Phase1.shm_targets st.Phase3.p1 f v
  in
  let pts_of (v : Ssair.Ir.value) =
    match v with
    | Ssair.Ir.Vreg id -> (
      match fn_ptsregs with
      | Some t -> Option.value ~default:Pointsto.Tset.empty (Hashtbl.find_opt t id)
      | None -> Pointsto.Tset.empty)
    | _ -> Pointsto.points_to st.Phase3.pts f v
  in
  (* defs are only consulted to resolve recv sockets, so built on demand *)
  let defs = lazy (Ssair.Ir.def_table f) in
  let callees : (string, cmemo) Hashtbl.t = Hashtbl.create 8 in
  (* control-dependence targets per block: entity that gains ctrl-taint
     (with the given reason) when the block executes under a tainted
     branch; wired to branch conditions after the walk *)
  let ctrl_targets : (int * int) list array = Array.make (fi.fi_maxbid + 1) [] in
  (* targets filed under a bid with no block are never wired (closures
     only hold real blocks), so they are safely dropped *)
  let add_ct bid eid why =
    if bid >= 0 && bid <= fi.fi_maxbid then
      ctrl_targets.(bid) <- (eid, why) :: ctrl_targets.(bid)
  in
  let flow1 self v why =
    let ve = value_eid v in
    if ve >= 0 then edge ve self mboth why
  in
  let flow_operands self vs why = List.iter (fun v -> flow1 self v why) vs in
  List.iter
    (fun (b : Ssair.Ir.block) ->
      let bid = b.Ssair.Ir.bbid in
      (* phis: data/ctrl from incomings; implicit flow from the branches
         controlling the merge *)
      List.iter
        (fun (p : Ssair.Ir.phi) ->
          let self = eval p.Ssair.Ir.pid in
          List.iter (fun (_, v) -> flow1 self v sw.(w_phi)) p.Ssair.Ir.incoming;
          if config.Config.control_deps then begin
            let why = sw.(w_phi_ctrl) in
            add_ct bid self why;
            List.iter
              (fun (pred, _) ->
                add_ct pred self why;
                match
                  (if pred >= 0 && pred <= fi.fi_maxbid then fi.fi_blocks.(pred) else None)
                with
                | Some pblk -> (
                  match pblk.Ssair.Ir.termin with
                  | Ssair.Ir.Cbr (Ssair.Ir.Vreg cvid, _, _)
                  | Ssair.Ir.Switch (Ssair.Ir.Vreg cvid, _, _) ->
                    if not (Phase3.branch_decided st f pblk) then
                      edge (eval cvid) self many_ctrl why
                  | _ -> ())
                | None -> ())
              p.Ssair.Ir.incoming
          end)
        b.Ssair.Ir.phis;
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          (* [self] is interned per arm: stores and allocas produce no
             value flow, so their entities would only bloat the tables *)
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Alloca _ | Ssair.Ir.Annotation _ -> ()
          | Ssair.Ir.Load { ptr; lty } ->
            let self = eval i.Ssair.Ir.iid in
            (* 1. shared-memory reads: static source (warning) when the
               context leaves a non-core target uncovered; edge from the
               region node for covered core regions *)
            let shm_targets = shm_of ptr in
            Phase1.Rset.iter
              (fun tgt ->
                let rname = tgt.Phase1.Rtgt.region in
                match Shm.region st.Phase3.shm rname with
                | None -> ()
                | Some r ->
                  if r.Shm.r_noncore then begin
                    let covered =
                      match tgt.Phase1.Rtgt.off with
                      | Offset.Byte byte ->
                        Phase3.Ctx.covers_region ctx rname ~lo:byte
                          ~hi:(byte + Ty.sizeof env lty)
                      | Offset.Top -> Phase3.Ctx.covers_region ctx rname ~lo:0 ~hi:r.Shm.r_size
                    in
                    if not covered then begin
                      sk.s_warn
                        {
                          Report.w_func = fname;
                          w_region = rname;
                          w_loc = i.Ssair.Ir.iloc;
                          w_context = Phase3.Ctx.names ctx;
                        };
                      seed self (region_ent rname)
                        (wid
                           (Fmt.str "unmonitored read of non-core region %s at %a" rname
                              Loc.pp i.Ssair.Ir.iloc))
                    end
                  end
                  else begin
                    let node = Pointsto.Node.Nshm rname in
                    if not (Phase3.Ctx.covers_node ctx node) then
                      edge (node_ent node) self mdata sw.(w_core_read)
                  end)
              shm_targets;
            (* 2. ordinary memory (cf. the shm/ordinary split in the
               oracle) *)
            if Phase1.Rset.is_empty shm_targets then
              Pointsto.Tset.iter
                (fun tgt ->
                  let node = tgt.Pointsto.Target.node in
                  if not (Phase3.Ctx.covers_node ctx node) then begin
                    let ne = node_ent node in
                    edge ne self mdata sw.(w_load_unsafe);
                    edge ne self mctrl sw.(w_load_ctrl_unsafe)
                  end)
                (pts_of ptr);
            (* 3. tainted address *)
            flow1 self ptr sw.(w_load_ptr)
          | Ssair.Ir.Store { ptr; sval; _ } ->
            let target_nodes =
              let shm = shm_of ptr in
              if Phase1.Rset.is_empty shm then
                Pointsto.Tset.fold
                  (fun tgt acc -> node_ent tgt.Pointsto.Target.node :: acc)
                  (pts_of ptr)
                  []
              else
                Phase1.Rset.fold
                  (fun tgt acc ->
                    node_ent (Pointsto.Node.Nshm tgt.Phase1.Rtgt.region) :: acc)
                  shm []
            in
            (let ve = value_eid sval in
             if ve >= 0 then
               List.iter
                 (fun ne ->
                   edge ve ne mdata sw.(w_store_d);
                   edge ve ne mctrl sw.(w_store_c))
                 target_nodes);
            if config.Config.control_deps then begin
              List.iter (fun ne -> add_ct bid ne sw.(w_store_ctrl)) target_nodes
            end
          | Ssair.Ir.Binop { lhs; rhs; _ } ->
            let self = eval i.Ssair.Ir.iid in
            flow1 self lhs sw.(w_arith);
            flow1 self rhs sw.(w_arith)
          | Ssair.Ir.Unop { operand; _ } -> flow1 (eval i.Ssair.Ir.iid) operand sw.(w_arith)
          | Ssair.Ir.Cast { cval; _ } -> flow1 (eval i.Ssair.Ir.iid) cval sw.(w_cast)
          | Ssair.Ir.Gep { base; idx; _ } ->
            let self = eval i.Ssair.Ir.iid in
            flow1 self base sw.(w_addr);
            flow1 self idx sw.(w_addr)
          | Ssair.Ir.Call { callee; args; _ } -> (
            let self = eval i.Ssair.Ir.iid in
            let cm =
              match Hashtbl.find_opt callees callee with
              | Some cm -> cm
              | None ->
                (* first sight of this callee in the pair: for a defined
                   callee the memo computation also emits the discover op
                   — the old per-site repeats were deduplicated at
                   replay, so keeping only the first site's op is
                   equivalent *)
                let cm = sk.s_cmemo ctx self_cid callee in
                Hashtbl.replace callees callee cm;
                cm
            in
            match cm with
            | Cdefined cm ->
              List.iteri
                (fun k arg ->
                  if k < Array.length cm.cm_params then begin
                    let pe = cm.cm_params.(k) in
                    (let ve = value_eid arg in
                     if ve >= 0 then edge ve pe mboth cm.cm_why_args.(k));
                    if config.Config.control_deps then
                      add_ct bid pe sw.(w_call_ctrl)
                  end)
                args;
              edge cm.cm_ret self mboth cm.cm_why_ret
            | Cextern cm ->
              if List.mem callee config.Config.recv_functions then begin
                let socket_is_noncore =
                  match args with
                  | sock :: _ -> (
                    match sock with
                    | Ssair.Ir.Vparam p -> Hashtbl.mem st.Phase3.noncore_sockets p
                    | Ssair.Ir.Vreg id -> (
                      match Hashtbl.find_opt (Lazy.force defs) id with
                      | Some
                          (Ssair.Ir.Def_instr
                             ( { idesc = Ssair.Ir.Load { ptr = Ssair.Ir.Vglobal gl; _ }; _ },
                               _ )) ->
                        Hashtbl.mem st.Phase3.noncore_sockets gl
                      | _ -> false)
                    | _ -> false)
                  | [] -> false
                in
                if socket_is_noncore then
                  match args with
                  | _ :: buf :: _ ->
                    let w = sw.(w_recv) in
                    Pointsto.Tset.iter
                      (fun tgt ->
                        seed
                          (node_ent tgt.Pointsto.Target.node)
                          (region_ent (Fmt.str "socket via %s" callee))
                          w)
                      (pts_of buf)
                  | _ -> ()
              end;
              flow_operands self args cm.cm_why_ext))
        b.Ssair.Ir.instrs;
      match b.Ssair.Ir.termin with
      | Ssair.Ir.Ret (Some v) ->
        let re = sk.s_ent_ret self_fid self_cid in
        (let ve = value_eid v in
         if ve >= 0 then edge ve re mboth sw.(w_ret));
        if config.Config.control_deps then
          add_ct bid re sw.(w_ret_ctrl)
      | _ -> ())
    f.Ssair.Ir.blocks;
  (* wire branch conditions to the control-dependence targets of every
     block in their controls-closure (Phase3.block_control_taint made
     sparse: the closure is static, only the cond's taint is dynamic) *)
  List.iter
    (fun (_bB, cvid, closure) ->
      let c = eval cvid in
      List.iter
        (fun d ->
          if d >= 0 && d <= fi.fi_maxbid then
            List.iter (fun (teid, why) -> edge c teid many_ctrl why) ctrl_targets.(d))
        closure)
    fi.fi_bi.Phase3.br_branches

(** Compute a callee memo through [sk]: callee context (own assumptions,
    unioned with the caller context when context-sensitive), parameter
    and return entities, and the formatted reasons.  Everything here
    depends only on the caller context and the callee, never on the rest
    of the calling pair, which is what lets the direct sink memoize the
    result across pairs. *)
let compute_cmemo g (sk : sink) ctx self_cid callee : cmemo =
  match Hashtbl.find_opt g.funcs_by_name callee with
  | Some gfn ->
    let gfid = sk.s_sid gfn.Ssair.Ir.fname in
    let gcid = sk.s_callee_cid ctx self_cid gfn in
    sk.s_discover gfn gcid;
    let cm_params =
      Array.of_list
        (List.map
           (fun (pname, _) -> sk.s_ent_param gfid gcid (sk.s_sid pname))
           gfn.Ssair.Ir.fparams)
    in
    let cm_why_args, cm_why_ret = sk.s_call_whys gfid callee (Array.length cm_params) in
    Cdefined { cm_params; cm_ret = sk.s_ent_ret gfid gcid; cm_why_args; cm_why_ret }
  | None -> Cextern { cm_why_ext = sk.s_why_ext callee }

(* identity mapping: a block's static why ids are the indices themselves *)
let static_self_ids = Array.init n_static_whys Fun.id

(** Transcribe [f] under [ctx] into a position-independent flat edge
    block (the cacheable form). *)
let build_pair_block g (f : Ssair.Ir.func) (ctx : Phase3.Ctx.t) : block =
  (* block-local value tables; indices are what the packed descriptors
     and ops carry *)
  let lstrs = Intern.create 16 in
  let lctxs = Intern.create 4 in
  let lnodes = Intern.create 16 in
  let lwhys = Intern.create 32 in
  (* block-local entity table: packed descriptor ↦ dense index *)
  let lents = Intern.Packed.create 64 in
  let ents_buf = Ibuf.create 64 in
  let ops_buf = Ibuf.create 256 in
  let warns = ref [] in
  let n_warns = ref 0 in
  let ent_key k =
    let n = Intern.Packed.length lents in
    let i = Intern.Packed.intern lents k in
    if i = n then Ibuf.push ents_buf k;
    i
  in
  let rec sk =
    {
      s_sid = (fun x -> Intern.intern lstrs x);
      s_cid = (fun c -> Intern.intern lctxs c);
      (* dynamically formatted reasons only; compile-time constants are
         their [static_whys] index (below [n_static_whys]) *)
      s_wid = (fun x -> n_static_whys + Intern.intern lwhys x);
      s_swids = static_self_ids;
      s_nid = (fun n -> Intern.intern lnodes n);
      s_ent_val = (fun fid cid vid -> ent_key (pack_key 0 fid cid vid));
      s_ent_param = (fun fid cid pid -> ent_key (pack_key 1 fid cid pid));
      s_ent_ret = (fun fid cid -> ent_key (pack_key 2 fid cid 0));
      s_ent_node = (fun nid -> ent_key (pack_key 3 nid 0 0));
      s_ent_region = (fun rid -> ent_key (pack_key 4 rid 0 0));
      s_edge = (fun src dst mode why -> Ibuf.push ops_buf (pack_op 0 src dst mode why));
      s_seed = (fun dst parent why -> Ibuf.push ops_buf (pack_op 1 dst parent 0 why));
      s_warn =
        (fun w ->
          Ibuf.push ops_buf (pack_op 2 !n_warns 0 0 0);
          warns := w :: !warns;
          incr n_warns);
      s_discover =
        (fun gfn gcid ->
          Ibuf.push ops_buf (pack_op 3 (Intern.intern lstrs gfn.Ssair.Ir.fname) gcid 0 0));
      s_callee_cid =
        (fun ctx _self_cid gfn ->
          let own = own_list g gfn in
          Intern.intern lctxs
            (if g.st.Phase3.config.Config.context_sensitive then Phase3.Ctx.union ctx own
             else own));
      (* block-local tables can't be shared across pairs, so no memo *)
      s_cmemo = (fun ctx self_cid callee -> compute_cmemo g sk ctx self_cid callee);
      s_call_whys =
        (fun _fid callee nargs ->
          ( Array.init nargs (fun k ->
                sk.s_wid ("argument " ^ string_of_int k ^ " of call to " ^ callee)),
            sk.s_wid ("return value of " ^ callee) ));
      s_why_ext = (fun callee -> sk.s_wid ("through external call " ^ callee));
    }
  in
  walk_pair g sk f ctx ~self_cid:(Intern.intern lctxs ctx);
  {
    b_strs = Intern.to_array lstrs;
    b_ctxs = Intern.to_array lctxs;
    b_nodes = Intern.to_array lnodes;
    b_whys = Intern.to_array lwhys;
    b_ents = Ibuf.to_array ents_buf;
    b_ops = Ibuf.to_array ops_buf;
    b_warns = Array.of_list (List.rev !warns);
  }

(* -- Replaying a block into the live graph ------------------------------------- *)

(* Warning dedup by (loc, region) — mirrors Phase3.warn, but the record
   was already formatted at build time. *)
let record_warning g (w : Report.warning) =
  let key = (w.Report.w_loc, w.Report.w_region) in
  if not (Hashtbl.mem g.st.Phase3.warnings key) then
    Hashtbl.replace g.st.Phase3.warnings key w

(** Sink that emits a pair's edges straight into the live graph: global
    intern tables, immediate op application — no local tables, no block
    record, no replay translation.  Only valid with no cache attached
    (the cached path must produce a position-independent {!block} to
    store); applies the same ops in the same order as
    [build_pair_block] followed by [replay], so taints, origins and
    discoveries are identical.

    The sink is pair-independent: built once per run and reused for
    every pending pair.  That lets it memoize callee memos across pairs,
    keyed by (callee fname id, caller context id) — with few distinct
    contexts most pairs hit the memo, skipping the context union,
    reason formatting and parameter-entity interning entirely.  A hit is
    emission-free, exactly like the recomputation it replaces: entity
    interning is idempotent and the discover for that (callee, context)
    already ran when the memo was filled. *)
let direct_sink g : sink =
  let ent gkey mk =
    let n = Intern.Packed.length g.keys in
    let id = Intern.Packed.intern g.keys gkey in
    if id = n then begin
      ensure_cap g (n + 1);
      g.rev.(id) <- mk ()
    end;
    id
  in
  let cmemo_tbl : (int, cmemo) Hashtbl.t = Hashtbl.create 256 in
  let own_cids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* call/extern reasons depend only on the callee, never on the calling
     context — format and intern them once per callee (keyed by its
     string id) *)
  let call_whys : (int, int array * int) Hashtbl.t = Hashtbl.create 64 in
  let ext_whys : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* node/region entities are context-free, so their dense ids are
     cached per node/string id — no packed-key interning on the hot
     Load/Store path after first sight *)
  let node_eids = ref (Array.make 64 (-1)) in
  let region_eids = ref (Array.make 64 (-1)) in
  let slot cache i =
    let a = !cache in
    if i < Array.length a then a
    else begin
      let a' = Array.make (max (i + 1) (2 * Array.length a)) (-1) in
      Array.blit a 0 a' 0 (Array.length a);
      cache := a';
      a'
    end
  in
  let rec sk =
    {
      s_sid = (fun x -> Intern.intern g.strs x);
      s_cid = (fun c -> Intern.Ctx.intern g.ctxs c);
      s_wid = (fun x -> Intern.intern g.whys x);
      s_swids = g.static_wids;
      s_nid = (fun n -> Intern.intern g.nodes n);
      s_ent_val =
        (fun fid cid vid ->
          ent (pack_key 0 fid cid vid) (fun () ->
              Phase3.Eval (Intern.get g.strs fid, Intern.Ctx.get g.ctxs cid, vid)));
      s_ent_param =
        (fun fid cid pid ->
          ent (pack_key 1 fid cid pid) (fun () ->
              Phase3.Eparam
                (Intern.get g.strs fid, Intern.Ctx.get g.ctxs cid, Intern.get g.strs pid)));
      s_ent_ret =
        (fun fid cid ->
          ent (pack_key 2 fid cid 0) (fun () ->
              Phase3.Eret (Intern.get g.strs fid, Intern.Ctx.get g.ctxs cid)));
      s_ent_node =
        (fun nid ->
          let a = slot node_eids nid in
          let v = Array.unsafe_get a nid in
          if v >= 0 then v
          else begin
            let v = ent (pack_key 3 nid 0 0) (fun () -> Phase3.Enode (Intern.get g.nodes nid)) in
            Array.unsafe_set a nid v;
            v
          end);
      s_ent_region =
        (fun rid ->
          let a = slot region_eids rid in
          let v = Array.unsafe_get a rid in
          if v >= 0 then v
          else begin
            let v =
              ent (pack_key 4 rid 0 0) (fun () -> Phase3.Eregion (Intern.get g.strs rid))
            in
            Array.unsafe_set a rid v;
            v
          end);
      s_edge = (fun src dst mode why -> add_edge g src dst mode why);
      s_seed = (fun dst parent why -> set_data g dst ~parent ~why);
      s_warn = (fun w -> record_warning g w);
      s_discover = (fun gfn gcid -> discover_pair g gfn gcid);
      s_callee_cid =
        (fun _ctx self_cid gfn ->
          let ocid =
            match Hashtbl.find_opt own_cids gfn.Ssair.Ir.fname with
            | Some c -> c
            | None ->
              let c = Intern.Ctx.intern g.ctxs (own_list g gfn) in
              Hashtbl.replace own_cids gfn.Ssair.Ir.fname c;
              c
          in
          if g.st.Phase3.config.Config.context_sensitive then
            Intern.Ctx.union g.ctxs self_cid ocid
          else ocid);
      s_cmemo =
        (fun ctx self_cid callee ->
          let fid = Intern.intern g.strs callee in
          let key = (fid lsl 20) lor self_cid in
          match Hashtbl.find_opt cmemo_tbl key with
          | Some cm -> cm
          | None ->
            let cm = compute_cmemo g sk ctx self_cid callee in
            Hashtbl.add cmemo_tbl key cm;
            cm);
      s_call_whys =
        (fun fid callee nargs ->
          match Hashtbl.find_opt call_whys fid with
          | Some w -> w
          | None ->
            let w =
              ( Array.init nargs (fun k ->
                    sk.s_wid ("argument " ^ string_of_int k ^ " of call to " ^ callee)),
                sk.s_wid ("return value of " ^ callee) )
            in
            Hashtbl.add call_whys fid w;
            w);
      s_why_ext =
        (fun callee ->
          let fid = Intern.intern g.strs callee in
          match Hashtbl.find_opt ext_whys fid with
          | Some w -> w
          | None ->
            let w = sk.s_wid ("through external call " ^ callee) in
            Hashtbl.add ext_whys fid w;
            w);
    }
  in
  sk

(* Translate the block's local value tables to global intern ids once,
   then rewrite each packed local descriptor into a packed global key —
   no structural hashing per entity, and a fresh key constructs its
   [Phase3.entity] (for the pour-back) from the already-canonical global
   values. *)
let replay g (blk : block) =
  let gstrs = Array.map (Intern.intern g.strs) blk.b_strs in
  let gctxs = Array.map (Intern.Ctx.intern g.ctxs) blk.b_ctxs in
  let gnodes = Array.map (Intern.intern g.nodes) blk.b_nodes in
  let gwhys = Array.map (Intern.intern g.whys) blk.b_whys in
  let gw w =
    if w < n_static_whys then Array.unsafe_get g.static_wids w
    else Array.unsafe_get gwhys (w - n_static_whys)
  in
  let nents = Array.length blk.b_ents in
  let ids = Array.make (max nents 1) 0 in
  for i = 0 to nents - 1 do
    let k = Array.unsafe_get blk.b_ents i in
    let tag = key_tag k and a = key_a k and b = key_b k and c = key_c k in
    let gkey =
      match tag with
      | 0 -> pack_key 0 gstrs.(a) gctxs.(b) c
      | 1 -> pack_key 1 gstrs.(a) gctxs.(b) gstrs.(c)
      | 2 -> pack_key 2 gstrs.(a) gctxs.(b) 0
      | 3 -> pack_key 3 gnodes.(a) 0 0
      | _ -> pack_key 4 gstrs.(a) 0 0
    in
    let n = Intern.Packed.length g.keys in
    let id = Intern.Packed.intern g.keys gkey in
    if id = n then begin
      ensure_cap g (n + 1);
      g.rev.(id) <-
        (match tag with
        | 0 ->
          Phase3.Eval (Intern.get g.strs gstrs.(a), Intern.Ctx.get g.ctxs gctxs.(b), c)
        | 1 ->
          Phase3.Eparam
            (Intern.get g.strs gstrs.(a), Intern.Ctx.get g.ctxs gctxs.(b),
             Intern.get g.strs gstrs.(c))
        | 2 -> Phase3.Eret (Intern.get g.strs gstrs.(a), Intern.Ctx.get g.ctxs gctxs.(b))
        | 3 -> Phase3.Enode (Intern.get g.nodes gnodes.(a))
        | _ -> Phase3.Eregion (Intern.get g.strs gstrs.(a)))
    end;
    Array.unsafe_set ids i id
  done;
  let ops = blk.b_ops in
  for i = 0 to Array.length ops - 1 do
    let o = Array.unsafe_get ops i in
    let kind = op_kind o in
    if kind = 0 then
      add_edge g ids.(op_x o) ids.(op_y o) (op_mode o) (gw (op_why o))
    else if kind = 1 then set_data g ids.(op_x o) ~parent:ids.(op_y o) ~why:(gw (op_why o))
    else if kind = 2 then record_warning g blk.b_warns.(op_x o)
    else
      match Hashtbl.find_opt g.funcs_by_name blk.b_strs.(op_x o) with
      | Some gfn -> discover_pair g gfn gctxs.(op_y o)
      | None -> ()
  done

(* -- Content-addressed pair keys ----------------------------------------------- *)

(* Everything [build_pair_block] reads about a function, folded into one
   digest; combined with the context digest this keys the pair cache.
   Global inputs (region model, heap graph, type env, noncore sockets,
   semantic config) are digested once per run. *)
type keyctx = {
  kc_global : string;
  kc_p1_by : (string, string) Hashtbl.t;
  kc_pts_by : (string, string) Hashtbl.t;
  kc_funcs : (string, string) Hashtbl.t;  (** function digests *)
  kc_dep : (string, string) Hashtbl.t;  (** memoized per-function dependency digest *)
  kc_ctx : (int, string) Hashtbl.t;  (** memoized per-context digest, by ctx id *)
}

let make_keyctx g (digests : Digest_ir.t) ~sem_fp =
  let st = g.st in
  let p1_by = Digest_ir.phase1_by_func st.Phase3.p1 in
  let pts_by, heap_d = Digest_ir.pointsto_by_func st.Phase3.pts in
  let noncore_d =
    Digest_ir.of_value
      (List.sort compare
         (Hashtbl.fold (fun s () acc -> s :: acc) st.Phase3.noncore_sockets []))
  in
  {
    kc_global =
      Digest_ir.combine
        [ Digest_ir.shm st.Phase3.shm; heap_d; digests.Digest_ir.env; noncore_d; sem_fp ];
    kc_p1_by = p1_by;
    kc_pts_by = pts_by;
    kc_funcs = digests.Digest_ir.funcs;
    kc_dep = Hashtbl.create 64;
    kc_ctx = Hashtbl.create 64;
  }

(* Direct defined callees of [f] with the facts the builder reads about
   them: name, parameter names, own-assumption context. *)
let callee_sigs g (f : Ssair.Ir.func) =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (i : Ssair.Ir.instr) ->
      match i.Ssair.Ir.idesc with
      | Ssair.Ir.Call { callee; _ } when not (Hashtbl.mem seen callee) -> (
        match Hashtbl.find_opt g.funcs_by_name callee with
        | Some gfn ->
          Hashtbl.replace seen callee (List.map fst gfn.Ssair.Ir.fparams, own_list g gfn)
        | None -> ())
      | _ -> ())
    (Ssair.Ir.all_instrs f);
  List.sort compare (Hashtbl.fold (fun n sg acc -> (n, sg) :: acc) seen [])

let dep_digest g kc (f : Ssair.Ir.func) =
  let fname = f.Ssair.Ir.fname in
  match Hashtbl.find_opt kc.kc_dep fname with
  | Some d -> d
  | None ->
    (* the absint summary shapes the edge block (pruned control edges),
       and ranges are interprocedural, so it must key the cached block *)
    let absint_d =
      match g.st.Phase3.absint with
      | Some ai -> Absint.summary_digest ai fname
      | None -> "no-absint"
    in
    let d =
      Digest_ir.of_value
        ( Hashtbl.find kc.kc_funcs fname,
          Digest_ir.facts_digest kc.kc_p1_by fname,
          Digest_ir.facts_digest kc.kc_pts_by fname,
          kc.kc_global,
          absint_d,
          callee_sigs g f )
    in
    Hashtbl.replace kc.kc_dep fname d;
    d

let pair_key g kc (f : Ssair.Ir.func) cid =
  let ctx_d =
    match Hashtbl.find_opt kc.kc_ctx cid with
    | Some d -> d
    | None ->
      let d = Digest_ir.of_value (Intern.Ctx.get g.ctxs cid) in
      Hashtbl.replace kc.kc_ctx cid d;
      d
  in
  Digest_ir.combine [ dep_digest g kc f; ctx_d ]

(* -- Entry point --------------------------------------------------------------- *)

let run ?(config = Config.default) ?cache ?digests ?absint (prog : Ssair.Ir.program)
    (shm : Shm.t) (p1 : Phase1.t) (pts : Pointsto.t) : Phase3.result =
  let st = Phase3.make_state ~config ?absint prog shm p1 pts in
  let g = create st in
  let keyed =
    match (cache, digests) with
    | Some c, Some d -> Some (c, make_keyctx g d ~sem_fp:(Digest_ir.semantic_config config))
    | _ -> None
  in
  List.iter
    (fun (f, ctx) -> discover_pair g f (Intern.Ctx.intern g.ctxs ctx))
    (Phase3.root_pairs st);
  (* pair discovery is taint-independent, so building all pairs before
     draining reaches the same closure as interleaving would.  Without a
     cache each pending pair is walked straight into the graph in FIFO
     order.  With one, the pending queue is drained in waves: each
     pair's block is found in the cache or built and stored, then the
     wave is replayed in discovery order — the same total op order as
     the direct walk, which keeps reports bit-identical across {no
     cache, cold, warm}. *)
  let direct () =
    let sk = direct_sink g in
    let n = ref 0 in
    while not (Queue.is_empty g.pending) do
      let f, cid = Queue.pop g.pending in
      incr n;
      if Telemetry.enabled () then
        Telemetry.span "pair.build"
          ~args:[ ("function", f.Ssair.Ir.fname) ]
          (fun () ->
            Telemetry.time_hist h_pair_build (fun () ->
                walk_pair g sk f (Intern.Ctx.get g.ctxs cid) ~self_cid:cid))
      else walk_pair g sk f (Intern.Ctx.get g.ctxs cid) ~self_cid:cid
    done;
    Telemetry.add c_pair_built !n
  in
  let rec waves c kc =
    if not (Queue.is_empty g.pending) then begin
      let wave = Array.of_seq (Queue.to_seq g.pending) in
      Queue.clear g.pending;
      let blocks =
        Array.map
          (fun ((f : Ssair.Ir.func), cid) ->
            let key = pair_key g kc f cid in
            match (Cache.find c ~ns:"pair" ~key : block option) with
            | Some b ->
              Telemetry.incr c_pair_replayed;
              b
            | None ->
              let b =
                Telemetry.span "pair.build"
                  ~args:[ ("function", f.Ssair.Ir.fname) ]
                  (fun () ->
                    Telemetry.time_hist h_pair_build (fun () ->
                        build_pair_block g f (Intern.Ctx.get g.ctxs cid)))
              in
              Telemetry.incr c_pair_built;
              Cache.store c ~ns:"pair" ~key b;
              b)
          wave
      in
      Telemetry.span "phase3.replay" (fun () -> Array.iter (replay g) blocks);
      waves c kc
    end
  in
  Telemetry.span "phase3.waves" (fun () ->
      match keyed with Some (c, kc) -> waves c kc | None -> direct ());
  Telemetry.span "phase3.csr_build" (fun () -> finalize_csr g);
  Telemetry.span "phase3.drain" (fun () -> drain g);
  Telemetry.add c_wl_pushes g.n_pushes;
  Telemetry.add c_wl_pops g.n_pops;
  Telemetry.add c_edges g.n_edges;
  Telemetry.add c_entities (Intern.Packed.length g.keys);
  Telemetry.add c_contexts (Intern.Ctx.length g.ctxs);
  Telemetry.add c_bitset_words (Bitset.words g.data + Bitset.words g.ctrl);
  (* pour the interned taints back into the shared state shape; the
     tables are sized up front from the bitset population counts so
     insertion never rehashes *)
  let entity_origin parents whys i =
    let p = parents.(i) in
    {
      Phase3.parent = (if p < 0 then None else Some g.rev.(p));
      why = Intern.get g.whys whys.(i);
    }
  in
  Telemetry.span "phase3.pour" (fun () ->
      let nents = Intern.Packed.length g.keys in
      let data_tbl = Hashtbl.create (2 * Bitset.count g.data) in
      let ctrl_tbl = Hashtbl.create (2 * Bitset.count g.ctrl) in
      for i = 0 to nents - 1 do
        if Bitset.get g.data i then
          Hashtbl.replace data_tbl g.rev.(i) (entity_origin g.d_parent g.d_why i);
        if Bitset.get g.ctrl i then
          Hashtbl.replace ctrl_tbl g.rev.(i) (entity_origin g.c_parent g.c_why i)
      done;
      st.Phase3.data <- data_tbl;
      st.Phase3.ctrl <- ctrl_tbl);
  let dependencies = Telemetry.span "phase3.collect" (fun () -> Phase3.collect_dependencies st) in
  {
    Phase3.warnings =
      Hashtbl.fold (fun _ w acc -> w :: acc) st.Phase3.warnings []
      |> List.stable_sort Report.compare_warning;
    dependencies;
    passes = 1;
    pair_count = Hashtbl.length st.Phase3.pairs;
    engine_stats =
      [ ("vf_entities", Intern.Packed.length g.keys);
        ("vf_contexts", Intern.Ctx.length g.ctxs);
        ("vf_edges", g.n_edges);
        ("vf_pops", g.n_pops);
        ("vf_pushes", g.n_pushes) ];
    taint_state = st;
  }

(** The phase-3 engine: a sparse worklist over an explicit value-flow
    graph.

    A dense fixpoint would re-scan every instruction of every discovered
    (function, context) pair until no taint changes (the test-only
    oracle in [test/legacy_phase3.ml] does exactly that).  This engine
    visits each pair {e once}:
    on first discovery it builds the pair's value-flow successor edges
    (SSA def-use, load/store edges resolved by {!Pointsto}, call/return
    edges) and thereafter propagates newly-tainted entities along
    out-edges from a worklist.  Control dependence costs one marker edge
    per undecided branch: when the branch condition is tainted, the
    marker is expanded by a walk over the direct edges of the function's
    CDG ({!Phase3.brinfo}), which ctrl-taints the control targets
    (phis, stored-to objects, call arguments, returns) of every block it
    reaches.  The walk stops at blocks already expanded in the same
    pair, so each block is expanded at most once per pair and the graph
    stays linear in the program, where wiring every branch's transitive
    closure was quadratic in nesting depth.  Expansion fires the targets
    in exactly the order the closure's edges would, so first-win origins
    and witness paths are unchanged.
    Entities and monitoring contexts are interned to dense integer ids
    ({!Intern}), so taint membership is an array lookup.

    Equivalence with the dense-fixpoint oracle: warnings, violations,
    discovered pairs and dependency classifications are identical
    (asserted by [test/test_engine_equiv.ml]).  Two deliberate,
    report-invisible deviations: propagation-trace parents may differ
    (both sides pick an arbitrary witness path), and control-taint is
    propagated monotonically where the oracle's data-taint branch
    shadows its control branch — the extra control marks land only on
    entities that are also data-tainted, and data shadows control
    everywhere the report classifies, so classifications agree. *)

(** CSR (compressed sparse row) adjacency over dense entity ids: the
    flat edge list the pair walks append to is finalized once — between
    the last pair walk and the worklist drain — into offset/target/info
    arrays, so the drain walks each entity's successors as one array
    slice.  Exposed for the property tests in [test/test_csr.ml]. *)
module Csr : sig
  type t = { off : int array; dst : int array; info : int array }

  val build : n:int -> src:int array -> dst:int array -> info:int array -> len:int -> t
  (** [build ~n ~src ~dst ~info ~len] sorts the first [len] edges
      [(src.(i), dst.(i), info.(i))] (source ids in [0, n)) into
      row-major adjacency.  Each row reads in {e reverse insertion
      order}, reproducing the cons-list adjacency this layout replaced
      (first-win taint origins depend on it). *)

  val degree : t -> int -> int

  val row : t -> int -> (int * int) list
  (** [(dst, info)] successors of a source, in row (= iteration)
      order *)
end

val run :
  ?config:Config.t ->
  ?absint:Absint.t ->
  Ssair.Ir.program ->
  Shm.t ->
  Phase1.t ->
  Pointsto.t ->
  Phase3.result
(** Run phase 3 to closure.  [?absint] prunes control dependence of
    branches whose direction the value-range analysis decides
    (precision-only, mirrored in the oracle); [result.passes] is 1 and
    [result.engine_stats] reports interned-entity, edge and worklist-pop
    counters.

    Each discovered (function, context) pair is walked once, in
    discovery order, straight into the graph.  Caching is the caller's
    business: {!Driver.stage_phase3} stores the whole result. *)

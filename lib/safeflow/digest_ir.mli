(** Stable structural digests of analysis inputs — the keys of the
    content-addressed analysis cache ({!Cache}).

    Every digest is a hex MD5 of a canonical [Marshal] encoding of pure
    data.  Hash-table-backed structures (type environments, phase-1
    facts, points-to sets) are first converted to sorted association
    lists so the digest does not depend on internal bucket order.

    Two digests are equal iff the digested structures are structurally
    equal; since SSA functions carry source locations, an edit that
    shifts line numbers of an unrelated function also changes that
    function's digest (a sound over-approximation — cached results are
    recomputed, never reused wrongly). *)

type t = {
  funcs : (string, string) Hashtbl.t;  (** function name ↦ digest of its SSA body *)
  program : string;
      (** whole program: env + globals + externs + every function digest
          (annotations and callgraph edges are part of the function
          bodies, so they are covered) *)
  env : string;  (** type environment only (drives [Ty.sizeof]) *)
}

val of_value : 'a -> string
(** hex MD5 of the canonical marshalling of an arbitrary pure value; the
    value must not contain closures or custom blocks *)

val combine : string list -> string
(** digest of a list of digests *)

val source_key : ?file:string -> string -> string
(** key for the frontend tier: digest of (file name, source text) *)

val semantic_config : Config.t -> string
(** fingerprint of the {e semantic} configuration fields — the ones that
    change analysis results.  [verbose] is excluded: it never changes
    reports. *)

val of_program : Ssair.Ir.program -> t

val func : t -> string -> string
(** digest of one function (raises if unknown) *)

val phase1_by_func : Phase1.t -> (string, string) Hashtbl.t
(** per-function digest of the phase-1 shm-pointer facts concerning that
    function (register, parameter and return facts); functions without
    facts are absent — use {!facts_digest} for a total lookup *)

val facts_digest : (string, string) Hashtbl.t -> string -> string
(** total lookup into a {!phase1_by_func} table: a fixed "no facts"
    digest for absent functions *)

val shm : Shm.t -> string
(** digest of the region model (layout, non-coreness, init functions) *)

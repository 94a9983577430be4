(** Dominator tree (Cooper–Harvey–Kennedy), dominance frontiers (Cytron)
    and post-dominators for control-dependence computation. *)

type tree = {
  idom : (Ir.bid, Ir.bid) Hashtbl.t;  (** immediate dominator; root maps to itself *)
  children : (Ir.bid, Ir.bid list) Hashtbl.t;
  order : Ir.bid list;                (** reverse postorder used internally *)
  root : Ir.bid;
}

val compute_generic :
  root:Ir.bid -> nodes:Ir.bid list -> preds:(Ir.bid -> Ir.bid list) ->
  succs:(Ir.bid -> Ir.bid list) -> tree
(** dominators of an arbitrary rooted graph *)

val compute : Ir.func -> tree
(** dominator tree of a function's CFG *)

val idom : tree -> Ir.bid -> Ir.bid option
(** [None] for the root *)

val children : tree -> Ir.bid -> Ir.bid list

val dominates : tree -> Ir.bid -> Ir.bid -> bool
(** reflexive; climbs the tree, so a query costs the depth of its second
    argument *)

val dominance_oracle : tree -> Ir.bid -> Ir.bid -> bool
(** [dominance_oracle t] answers exactly as [dominates t] in O(1) per
    query, after numbering the tree once in O(n) *)

val frontiers : Ir.func -> tree -> (Ir.bid, Ir.bid list) Hashtbl.t

val virtual_exit : Ir.bid
(** the virtual exit node (-1) used as post-dominator root *)

val compute_post : Ir.func -> tree
(** post-dominators; infinite loops are connected to the virtual exit so
    every block is covered *)

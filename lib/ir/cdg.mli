(** Control-dependence graph (Ferrante–Ottenstein–Warren), computed from
    the post-dominator tree.  Used by phase 3 to detect critical data
    that is control-dependent on unmonitored non-core values. *)

type t = {
  deps : (Ir.bid, Ir.bid list) Hashtbl.t Lazy.t;
      (** block → its controllers; built on first use *)
  controls : (Ir.bid, Ir.bid list) Hashtbl.t Lazy.t;
      (** block → blocks it controls; built on first use *)
  slot_of : Ir.bid -> int;  (** block id → canonical dense slot, -1 if unknown *)
  slot_bid : int array;  (** dense slot → block id *)
  ctrl_slots : int list array;
      (** [controls] on dense slots, for array-based walks *)
}

val compute : Ir.func -> t

val deps_of : t -> Ir.bid -> Ir.bid list

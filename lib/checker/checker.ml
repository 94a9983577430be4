(* Independent certificate checker (see checker.mli).

   This library re-verifies `safeflow-cert/1` bundles against freshly
   parsed IR using only local checks.  It deliberately does NOT depend
   on the analyzer libraries (safeflow, absint, omega, pointsto,
   dataflow): every semantic rule it needs — the interval domain and
   its transfer functions, the affine abstraction of SSA values, the
   branch-refinement and induction rules — is re-implemented here from
   the written-down semantics, so a bug in the analyzer's implementation
   of those rules is caught rather than reproduced.  The shared trusted
   base is the MiniC frontend and the SSA IR builder (minic + ssair),
   which both sides must agree on by construction: certificates are
   statements about that IR.

   Layout of this file:
     1. interval domain (mirror of the absint lattice)
     2. transfer functions + branch refinement (mirror of absint)
     3. post-fixpoint verification of recorded function summaries
     4. query mirror (dominator-refined ranges at a program point)
     5. affine expressions + constraint derivation (mirror of phase 2)
     6. rational Fourier–Motzkin refuter with integer tightening
     7. certificate JSON decoding and per-kind validation
     8. bundle validation driver *)

open Minic
module Ir = Ssair.Ir
module J = Jsonlite

let md5_hex s = Digest.to_hex (Digest.string s)

(* the witness hash chain: each step commits to its content and to the
   link of the step before it (empty link before the first step) *)
let step_link ~desc ~why ~key ~prev =
  let why = match why with None -> "-" | Some w -> "+" ^ w in
  md5_hex (String.concat "\x00" [ "step"; desc; why; key; prev ])

(* -- 1. Interval domain --------------------------------------------------- *)

module Itv = struct
  type bound = MInf | Fin of int | PInf

  type t = Bot | Iv of bound * bound

  let top = Iv (MInf, PInf)

  let bcmp a b =
    match (a, b) with
    | MInf, MInf | PInf, PInf -> 0
    | MInf, _ -> -1
    | _, MInf -> 1
    | PInf, _ -> 1
    | _, PInf -> -1
    | Fin x, Fin y -> compare x y

  let bmin a b = if bcmp a b <= 0 then a else b
  let bmax a b = if bcmp a b >= 0 then a else b

  let norm lo hi = if bcmp lo hi > 0 then Bot else Iv (lo, hi)

  let const n = Iv (Fin n, Fin n)
  let range lo hi = norm (Fin lo) (Fin hi)

  let is_bot t = t = Bot
  let equal (a : t) b = a = b

  let leq a b =
    match (a, b) with
    | Bot, _ -> true
    | _, Bot -> false
    | Iv (l1, h1), Iv (l2, h2) -> bcmp l2 l1 <= 0 && bcmp h1 h2 <= 0

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Iv (l1, h1), Iv (l2, h2) -> Iv (bmin l1 l2, bmax h1 h2)

  let meet a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) -> norm (bmax l1 l2) (bmin h1 h2)

  let badd ~inf a b =
    match (a, b) with
    | MInf, PInf | PInf, MInf -> inf
    | MInf, _ | _, MInf -> MInf
    | PInf, _ | _, PInf -> PInf
    | Fin x, Fin y ->
      let s = x + y in
      if x >= 0 = (y >= 0) && s >= 0 <> (x >= 0) then if x >= 0 then PInf else MInf
      else Fin s

  let bneg = function
    | MInf -> PInf
    | PInf -> MInf
    | Fin x -> if x = min_int then PInf else Fin (-x)

  let bmul a b =
    match (a, b) with
    | Fin 0, _ | _, Fin 0 -> Fin 0
    | (MInf | PInf), (MInf | PInf) -> if a = b then PInf else MInf
    | ((MInf | PInf) as i), Fin x | Fin x, ((MInf | PInf) as i) ->
      if x > 0 then i else bneg i
    | Fin x, Fin y ->
      let p = x * y in
      if (x = -1 && y = min_int) || (y = -1 && x = min_int) || p / y <> x then
        if x > 0 = (y > 0) then PInf else MInf
      else Fin p

  let add a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) -> Iv (badd ~inf:MInf l1 l2, badd ~inf:PInf h1 h2)

  let neg = function Bot -> Bot | Iv (l, h) -> Iv (bneg h, bneg l)

  let sub a b = add a (neg b)

  let mul a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Iv (l1, h1), Iv (l2, h2) ->
      let ps = [ bmul l1 l2; bmul l1 h2; bmul h1 l2; bmul h1 h2 ] in
      Iv (List.fold_left bmin PInf ps, List.fold_left bmax MInf ps)

  let contains t n =
    match t with
    | Bot -> false
    | Iv (l, h) -> bcmp l (Fin n) <= 0 && bcmp (Fin n) h <= 0

  let is_zero t = t = Iv (Fin 0, Fin 0)

  let excludes_zero t = t <> Bot && not (contains t 0)

  let within t ~lo ~hi =
    match t with
    | Bot -> true
    | Iv (l, h) -> bcmp (Fin lo) l <= 0 && bcmp h (Fin hi) <= 0

  let finite_lo = function Iv (Fin l, _) -> Some l | _ -> None
  let finite_hi = function Iv (_, Fin h) -> Some h | _ -> None

  let pp_bound ppf = function
    | MInf -> Fmt.string ppf "-oo"
    | PInf -> Fmt.string ppf "+oo"
    | Fin n -> Fmt.int ppf n

  let pp ppf = function
    | Bot -> Fmt.string ppf "_|_"
    | Iv (MInf, PInf) -> Fmt.string ppf "T"
    | Iv (l, h) when l = h -> Fmt.pf ppf "[%a]" pp_bound l
    | Iv (l, h) -> Fmt.pf ppf "[%a,%a]" pp_bound l pp_bound h
end

let itv_str i = Fmt.str "%a" Itv.pp i

(* -- 2. Transfer functions and branch refinement -------------------------- *)

type key = Kvid of Ir.vid | Kparam of string

(* recorded facts for one function, decoded from the bundle's absenv *)
type fsum = {
  fs_params : (string * Itv.t) list;
  fs_ret : Itv.t;
  fs_ret_raw : Itv.t;  (* pre-promotion join over reachable rets *)
  fs_env : (Ir.vid, Itv.t) Hashtbl.t;
}

type fenv = {
  func : Ir.func;
  defs : (Ir.vid, Ir.def_site) Hashtbl.t;
  preds : (Ir.bid, Ir.bid list) Hashtbl.t;
  env : (Ir.vid, Itv.t) Hashtbl.t;
  params : (string * Itv.t) list;
  ret_of : string -> Itv.t;
  reach : (Ir.bid, unit) Hashtbl.t;
}

let lookup ctx id = Option.value ~default:Itv.Bot (Hashtbl.find_opt ctx.env id)

let int_roundtrips n = Int64.of_int (Int64.to_int n) = n

let itv_of_int64 n =
  if int_roundtrips n then Itv.const (Int64.to_int n)
  else if Int64.compare n 0L > 0 then Itv.Iv (Itv.Fin max_int, Itv.PInf)
  else Itv.Iv (Itv.MInf, Itv.Fin min_int)

let eval_value ctx = function
  | Ir.Vint (n, _) -> itv_of_int64 n
  | Ir.Vreg id -> lookup ctx id
  | Ir.Vparam p ->
    (match List.assoc_opt p ctx.params with Some i -> i | None -> Itv.top)
  | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ -> Itv.top

let key_of_value = function
  | Ir.Vreg id -> Some (Kvid id)
  | Ir.Vparam p -> Some (Kparam p)
  | _ -> None

let eval_cmp op a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    let al, ah, bl, bh =
      match (a, b) with
      | Iv (al, ah), Iv (bl, bh) -> (al, ah, bl, bh)
      | _ -> assert false
    in
    let always, never =
      match op with
      | Ast.Lt -> (bcmp ah bl < 0, bcmp al bh >= 0)
      | Ast.Le -> (bcmp ah bl <= 0, bcmp al bh > 0)
      | Ast.Gt -> (bcmp al bh > 0, bcmp ah bl <= 0)
      | Ast.Ge -> (bcmp al bh >= 0, bcmp ah bl < 0)
      | Ast.Eq -> (al = ah && bl = bh && al = bl && al <> MInf && al <> PInf,
                   is_bot (meet a b))
      | Ast.Ne -> (is_bot (meet a b),
                   al = ah && bl = bh && al = bl && al <> MInf && al <> PInf)
      | _ -> (false, false)
    in
    if always then const 1 else if never then const 0 else range 0 1

let eval_rem a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match finite_hi (join b (neg b)) with
    | Some m when m >= 1 ->
      let hi = m - 1 in
      (match finite_lo a with
      | Some l when l >= 0 -> range 0 hi
      | _ -> range (-hi) hi)
    | _ -> top

let eval_div a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match (finite_lo b, finite_hi b) with
    | Some bl, Some bh when bl = bh && bl <> 0 ->
      let k = bl in
      (match (a, excludes_zero b) with
      | Iv (l, h), _ ->
        let bdiv = function
          | MInf -> if k > 0 then MInf else PInf
          | PInf -> if k > 0 then PInf else MInf
          | Fin x -> Fin (x / k)
        in
        let c1 = bdiv l and c2 = bdiv h in
        Iv (bmin c1 c2, bmax c1 c2)
      | Bot, _ -> Bot)
    | _ -> (
      match (finite_lo a, finite_hi a) with
      | Some l, Some h ->
        let m = max (abs l) (abs h) in
        range (-m) m
      | _ -> top)

let next_pow2_mask n =
  let rec go m = if m >= n && m > 0 then m else go ((m * 2) + 1) in
  go 1

let eval_bitop op a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match (finite_lo a, finite_hi a, finite_lo b, finite_hi b) with
    | Some al, Some ah, Some bl, Some bh when al >= 0 && bl >= 0 -> (
      match op with
      | Ast.Band -> range 0 (min ah bh)
      | Ast.Bor | Ast.Bxor -> range 0 (next_pow2_mask (max ah bh))
      | _ -> top)
    | _ -> top

let eval_shift op a b =
  let open Itv in
  if is_bot a || is_bot b then Bot
  else
    match (op, finite_lo b, finite_hi b) with
    | Ast.Shl, Some k, Some k' when k = k' && k >= 0 && k < 62 ->
      mul a (const (1 lsl k))
    | Ast.Shr, Some k, _ when k >= 0 -> (
      match (finite_lo a, finite_hi a) with
      | Some l, Some h when l >= 0 -> range 0 (h asr k)
      | _ -> top)
    | _ -> top

let eval_binop op a b =
  match op with
  | Ast.Add -> Itv.add a b
  | Ast.Sub -> Itv.sub a b
  | Ast.Mul -> Itv.mul a b
  | Ast.Div -> eval_div a b
  | Ast.Mod -> eval_rem a b
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> eval_cmp op a b
  | Ast.Land | Ast.Lor ->
    if Itv.is_bot a || Itv.is_bot b then Itv.Bot else Itv.range 0 1
  | Ast.Band | Ast.Bor | Ast.Bxor -> eval_bitop op a b
  | Ast.Shl | Ast.Shr -> eval_shift op a b

let eval_cast env_ty to_ty v =
  let open Itv in
  match Ty.resolve env_ty to_ty with
  | Ty.Char -> if within v ~lo:(-128) ~hi:127 then v else range (-128) 255
  | Ty.Int ->
    if within v ~lo:(-0x4000_0000 * 2) ~hi:0x7fff_ffff then v
    else range (-0x4000_0000 * 2) 0xffff_ffff
  | Ty.Long -> v
  | _ -> top

let negate_cmp = function
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | op -> op

let flip_cmp = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

let refine_cmp op b =
  let open Itv in
  match op with
  | Ast.Lt -> Iv (MInf, badd ~inf:PInf (match b with Bot -> PInf | Iv (_, h) -> h) (Fin (-1)))
  | Ast.Le -> Iv (MInf, (match b with Bot -> PInf | Iv (_, h) -> h))
  | Ast.Gt -> Iv (badd ~inf:MInf (match b with Bot -> MInf | Iv (l, _) -> l) (Fin 1), PInf)
  | Ast.Ge -> Iv ((match b with Bot -> MInf | Iv (l, _) -> l), PInf)
  | Ast.Eq -> b
  | _ -> top

let refine_ne a b =
  let open Itv in
  match (a, b) with
  | Iv (l, h), Iv (Fin k, Fin k') when k = k' ->
    if l = Fin k then norm (Fin (k + 1)) h
    else if h = Fin k then norm l (Fin (k - 1))
    else a
  | _ -> a

let rec refine_cond ctx v pol depth : (key * Itv.t) list =
  if depth > 8 then []
  else
    match v with
    | Ir.Vreg id -> (
      let self =
        if pol then
          let cur = lookup ctx id in
          if Itv.leq cur (Itv.Iv (Itv.Fin 0, Itv.PInf)) then
            [ (Kvid id, Itv.Iv (Itv.Fin 1, Itv.PInf)) ]
          else []
        else [ (Kvid id, Itv.const 0) ]
      in
      match Hashtbl.find_opt ctx.defs id with
      | Some (Ir.Def_instr ({ idesc = Ir.Binop { op; lhs; rhs; _ }; _ }, _)) -> (
        match (op, lhs, rhs) with
        | Ast.Ne, x, Ir.Vint (0L, _) -> self @ refine_cond ctx x pol (depth + 1)
        | Ast.Eq, x, Ir.Vint (0L, _) -> self @ refine_cond ctx x (not pol) (depth + 1)
        | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _ ->
          let op = if pol then op else negate_cmp op in
          let li = eval_value ctx lhs and ri = eval_value ctx rhs in
          let refine_side side_v other_itv op =
            match key_of_value side_v with
            | None -> []
            | Some k ->
              let cur = eval_value ctx side_v in
              let r =
                if op = Ast.Ne then refine_ne cur other_itv
                else Itv.meet cur (refine_cmp op other_itv)
              in
              [ (k, r) ]
          in
          self @ refine_side lhs ri op @ refine_side rhs li (flip_cmp op)
        | _ -> self)
      | Some (Ir.Def_instr ({ idesc = Ir.Unop { uop = Ast.Lnot; operand; _ }; _ }, _)) ->
        self @ refine_cond ctx operand (not pol) (depth + 1)
      | Some (Ir.Def_phi (p, pblk)) -> (
        match p.Ir.incoming with
        | [ (b1, v1); (b2, v2) ] -> (
          let classify (ba, va) (br, vr) =
            match ((Ir.block ctx.func ba).Ir.termin, va) with
            | Ir.Cbr (Ir.Vreg c, tb, eb), Ir.Vreg vc when vc = c && tb <> eb ->
              if eb = pblk && tb = br then Some (`And, c, vr)
              else if tb = pblk && eb = br then Some (`Or, c, vr)
              else None
            | _ -> None
          in
          let shape =
            match classify (b1, v1) (b2, v2) with
            | Some s -> Some s
            | None -> classify (b2, v2) (b1, v1)
          in
          match shape with
          | Some (`And, c, vr) when pol ->
            self
            @ refine_cond ctx (Ir.Vreg c) true (depth + 1)
            @ refine_cond ctx vr true (depth + 1)
          | Some (`Or, c, vr) when not pol ->
            self
            @ refine_cond ctx (Ir.Vreg c) false (depth + 1)
            @ refine_cond ctx vr false (depth + 1)
          | _ -> self)
        | _ -> self)
      | _ -> self)
    | Ir.Vparam p -> if pol then [] else [ (Kparam p, Itv.const 0) ]
    | _ -> []

let edge_feasible ctx pred_blk succ =
  match pred_blk.Ir.termin with
  | Ir.Cbr (c, tb, eb) when tb <> eb ->
    let cv = eval_value ctx c in
    if Itv.is_bot cv then false
    else if succ = tb then not (Itv.is_zero cv)
    else if succ = eb then not (Itv.excludes_zero cv)
    else true
  | _ -> true

let chain_refinements ctx blk =
  let rec climb current n acc =
    if n = 0 then acc
    else
      match Hashtbl.find_opt ctx.preds current with
      | Some [ p ] -> (
        match Ir.block_opt ctx.func p with
        | Some pp ->
          let acc =
            match pp.Ir.termin with
            | Ir.Cbr (c, tb, eb) when tb <> eb && (current = tb || current = eb) ->
              refine_cond ctx c (current = tb) 0 @ acc
            | _ -> acc
          in
          climb p (n - 1) acc
        | None -> acc)
      | _ -> acc
  in
  climb blk 8 []

let eval_phi ctx b (p : Ir.phi) =
  List.fold_left
    (fun acc (pred, v) ->
      match Ir.block_opt ctx.func pred with
      | None -> acc
      | Some pb ->
        if not (Hashtbl.mem ctx.reach pred) then acc
        else if not (edge_feasible ctx pb b.Ir.bbid) then acc
        else
          let base = eval_value ctx v in
          let refs =
            (match pb.Ir.termin with
            | Ir.Cbr (c, tb, eb) when tb <> eb ->
              refine_cond ctx c (b.Ir.bbid = tb) 0
            | _ -> [])
            @ chain_refinements ctx pred
          in
          let refined =
            match key_of_value v with
            | None -> base
            | Some k ->
              List.fold_left
                (fun acc' (k', itv) -> if k' = k then Itv.meet acc' itv else acc')
                base refs
          in
          Itv.join acc refined)
    Itv.Bot p.Ir.incoming

let eval_instr ctx env_ty (i : Ir.instr) =
  match i.Ir.idesc with
  | Ir.Binop { op; lhs; rhs; _ } ->
    eval_binop op (eval_value ctx lhs) (eval_value ctx rhs)
  | Ir.Unop { uop = Ast.Neg; operand; _ } -> Itv.neg (eval_value ctx operand)
  | Ir.Unop { uop = Ast.Lnot; operand; _ } ->
    let v = eval_value ctx operand in
    if Itv.is_bot v then Itv.Bot
    else if Itv.is_zero v then Itv.const 1
    else if Itv.excludes_zero v then Itv.const 0
    else Itv.range 0 1
  | Ir.Unop { uop = Ast.Bnot; _ } -> Itv.top
  | Ir.Cast { to_ty; cval; from_ty } ->
    if Ty.is_integer (Ty.resolve env_ty from_ty) || Ty.is_pointer (Ty.resolve env_ty from_ty)
    then eval_cast env_ty to_ty (eval_value ctx cval)
    else Itv.top
  | Ir.Call { callee; _ } -> ctx.ret_of callee
  | Ir.Load _ | Ir.Alloca _ | Ir.Gep _ | Ir.Store _ | Ir.Annotation _ -> Itv.top

(* -- 3. Post-fixpoint verification of recorded summaries ------------------ *)

(* The recorded environments are checked to be *inductive*: starting
   from the entry block, every phi and defining instruction of every
   reachable block must evaluate (under the recorded facts) to a value
   the recorded fact contains.  This is abstraction-carrying code: the
   expensive part of abstract interpretation is finding the fixpoint;
   checking that a claimed assignment IS a post-fixpoint needs a single
   pass and no widening, narrowing or iteration strategy.

   Reachability is re-derived here (closure from the entry under the
   recorded branch-condition intervals), so it can only be a subset of
   what the analyzer explored — joins over fewer predecessors are
   smaller, so an honest bundle still passes, and the induction only
   relies on facts this pass itself verified.

   Interprocedural facts are verified as one simultaneous induction:
   call results are checked against the callee's recorded raw return
   join, parameter facts against the joined argument values at every
   recorded call site, with all functions' environments assumed and
   discharged together (sound for recursion for the same reason a
   simultaneous induction over mutually recursive lemmas is). *)

let make_fenv (f : Ir.func) (sums : (string, fsum) Hashtbl.t) (fs : fsum) =
  {
    func = f;
    defs = Ir.def_table f;
    preds = Ir.predecessors f;
    env = fs.fs_env;
    params = fs.fs_params;
    ret_of =
      (fun callee ->
        match Hashtbl.find_opt sums callee with
        | Some s -> s.fs_ret_raw
        | None -> Itv.top);
    reach = Hashtbl.create 16;
  }

let compute_reach ctx =
  Hashtbl.replace ctx.reach ctx.func.Ir.fentry ();
  let rec go bid =
    match Ir.block_opt ctx.func bid with
    | None -> ()
    | Some b ->
      List.iter
        (fun s ->
          if edge_feasible ctx b s && not (Hashtbl.mem ctx.reach s) then begin
            Hashtbl.replace ctx.reach s ();
            go s
          end)
        (Ir.succs_of_term b.Ir.termin)
  in
  go ctx.func.Ir.fentry

let verify_function ~(ir : Ir.program) (sums : (string, fsum) Hashtbl.t)
    (f : Ir.func) (fs : fsum) : (unit, string) result =
  let fname = f.Ir.fname in
  let err fmt = Fmt.kstr (fun m -> Error m) fmt in
  (* recorded facts must speak about values this function defines *)
  let ctx = make_fenv f sums fs in
  let bad =
    Hashtbl.fold
      (fun id _ acc ->
        match acc with
        | Some _ -> acc
        | None -> if Hashtbl.mem ctx.defs id then None else Some id)
      fs.fs_env None
  in
  match bad with
  | Some id -> err "function %s: recorded fact for unknown value %%%d" fname id
  | None -> (
    if List.map fst fs.fs_params <> List.map fst f.Ir.fparams then
      err "function %s: recorded parameter list does not match the IR" fname
    else begin
      compute_reach ctx;
      let failure = ref None in
      let fail fmt = Fmt.kstr (fun m -> if !failure = None then failure := Some m) fmt in
      List.iter
        (fun (b : Ir.block) ->
          if Hashtbl.mem ctx.reach b.Ir.bbid && !failure = None then begin
            List.iter
              (fun (p : Ir.phi) ->
                let nv = eval_phi ctx b p in
                let rec_v = lookup ctx p.Ir.pid in
                if not (Itv.leq nv rec_v) then
                  fail
                    "function %s: recorded range %s for phi %%%d (block %d) does not \
                     contain its one-step evaluation %s"
                    fname (itv_str rec_v) p.Ir.pid b.Ir.bbid (itv_str nv))
              b.Ir.phis;
            List.iter
              (fun (i : Ir.instr) ->
                if Ir.defines i && !failure = None then begin
                  let nv = eval_instr ctx ir.Ir.env i in
                  let rec_v = lookup ctx i.Ir.iid in
                  if not (Itv.leq nv rec_v) then
                    fail
                      "function %s: recorded range %s for %%%d (block %d) does not \
                       contain its one-step evaluation %s"
                      fname (itv_str rec_v) i.Ir.iid b.Ir.bbid (itv_str nv)
                end)
              b.Ir.instrs
          end)
        f.Ir.blocks;
      match !failure with
      | Some m -> Error m
      | None ->
        (* return fact: the raw join must cover every reachable ret *)
        let rjoin =
          List.fold_left
            (fun acc (b : Ir.block) ->
              if not (Hashtbl.mem ctx.reach b.Ir.bbid) then acc
              else
                match b.Ir.termin with
                | Ir.Ret (Some v) -> Itv.join acc (eval_value ctx v)
                | _ -> acc)
            Itv.Bot f.Ir.blocks
        in
        if not (Itv.leq rjoin fs.fs_ret_raw) then
          err "function %s: recorded return range %s does not contain %s" fname
            (itv_str fs.fs_ret_raw) (itv_str rjoin)
        else
          let promoted = if Itv.is_bot fs.fs_ret_raw then Itv.top else fs.fs_ret_raw in
          if not (Itv.equal fs.fs_ret promoted) then
            err "function %s: summary return %s is not the promotion of %s" fname
              (itv_str fs.fs_ret) (itv_str fs.fs_ret_raw)
          else Ok ()
    end)

(* parameter facts: mirror of the analyzer's call-site argument join —
   constant arguments by value, register arguments by the caller's
   recorded fact (defaulting to top), everything else top *)
(* one body per function name, the first: calls resolve to it (as in
   [find_func]), so a later body with a repeated name is never called,
   has no facts and its call sites constrain nothing *)
let first_bodies (ir : Ir.program) : (string, Ir.func) Hashtbl.t =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) -> if not (Hashtbl.mem t f.Ir.fname) then Hashtbl.add t f.Ir.fname f)
    ir.Ir.funcs;
  t

let verify_params ~(ir : Ir.program) (sums : (string, fsum) Hashtbl.t) :
    (unit, string) result =
  let funcs = first_bodies ir in
  let result = ref (Ok ()) in
  Hashtbl.iter
    (fun gname (gs : fsum) ->
      if !result = Ok () && List.exists (fun (_, i) -> not (Itv.equal i Itv.top)) gs.fs_params
      then begin
        let g = Hashtbl.find funcs gname in
        let nparams = List.length g.Ir.fparams in
        let joins = Array.make nparams Itv.Bot in
        let sites = ref 0 in
        List.iter
          (fun (f : Ir.func) ->
            if Hashtbl.find funcs f.Ir.fname == f then begin
              let fs = Hashtbl.find_opt sums f.Ir.fname in
              List.iter
                (fun (i : Ir.instr) ->
                  match i.Ir.idesc with
                  | Ir.Call { callee; args; _ } when callee = gname ->
                    incr sites;
                    List.iteri
                      (fun j a ->
                        if j < nparams then
                          let itv =
                            match a with
                            | Ir.Vint (n, _) -> itv_of_int64 n
                            | Ir.Vreg id ->
                              Option.value ~default:Itv.top
                                (Option.bind fs (fun fs ->
                                     Hashtbl.find_opt fs.fs_env id))
                            | Ir.Vparam _ | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _
                            | Ir.Vundef _ -> Itv.top
                          in
                          joins.(j) <- Itv.join joins.(j) itv)
                      args
                  | _ -> ())
                (Ir.all_instrs f)
            end)
          ir.Ir.funcs;
        if !sites = 0 then
          result :=
            Error
              (Fmt.str
                 "function %s: constrained parameters recorded but no call site \
                  justifies them"
                 gname)
        else
          List.iteri
            (fun j (pname, rec_itv) ->
              if !result = Ok () && not (Itv.equal rec_itv Itv.top) then
                if not (Itv.leq joins.(j) rec_itv) then
                  result :=
                    Error
                      (Fmt.str
                         "function %s: recorded range %s for parameter %s does not \
                          contain the call-site join %s"
                         gname (itv_str rec_itv) pname (itv_str joins.(j))))
            gs.fs_params
      end)
    sums;
  !result

(* -- 4. Query mirror: dominator-refined ranges at a program point --------- *)

type qmir = { q_fe : fenv; q_dom : Ssair.Dom.tree }

let make_qmir (f : Ir.func) (sums : (string, fsum) Hashtbl.t) (fs : fsum) =
  { q_fe = make_fenv f sums fs; q_dom = Ssair.Dom.compute f }

let dominating_refinements q bid =
  let ctx = q.q_fe in
  let single_pred blk from =
    match Hashtbl.find_opt ctx.preds blk with Some [ p ] -> p = from | _ -> false
  in
  let rec climb child acc =
    match Ssair.Dom.idom q.q_dom child with
    | None -> acc
    | Some parent when parent = child -> acc
    | Some parent ->
      let acc =
        match (Ir.block ctx.func parent).Ir.termin with
        | Ir.Cbr (c, tb, eb) when tb <> eb -> (
          let polarity =
            if child = tb && single_pred child parent then Some true
            else if child = eb && single_pred child parent then Some false
            else None
          in
          match polarity with
          | None -> acc
          | Some pol -> refine_cond ctx c pol 0 @ acc)
        | _ -> acc
      in
      climb parent acc
  in
  climb bid []

let range_of_key q ~at k =
  let base =
    match k with
    | Kvid id -> lookup q.q_fe id
    | Kparam p ->
      (match List.assoc_opt p q.q_fe.params with Some i -> i | None -> Itv.top)
  in
  List.fold_left
    (fun acc (k', itv) -> if k' = k then Itv.meet acc itv else acc)
    base (dominating_refinements q at)

let range_of_value q ~at v =
  match v with
  | Ir.Vint (n, _) -> itv_of_int64 n
  | Ir.Vreg id -> range_of_key q ~at (Kvid id)
  | Ir.Vparam p -> range_of_key q ~at (Kparam p)
  | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ -> Itv.top

let range_of_sym q ~at sym =
  let n = String.length sym in
  if n > 1 && sym.[0] = 'v' then
    match int_of_string_opt (String.sub sym 1 (n - 1)) with
    | Some id when Hashtbl.mem q.q_fe.defs id -> Some (range_of_key q ~at (Kvid id))
    | _ -> None
  else if n > 2 && sym.[0] = 'p' && sym.[1] = '_' then
    let p = String.sub sym 2 (n - 2) in
    if List.mem_assoc p q.q_fe.func.Ir.fparams then Some (range_of_key q ~at (Kparam p))
    else None
  else None

(* -- 5. Affine expressions and constraint derivation ---------------------- *)

module Lin = struct
  exception Overflow

  let add_ov a b =
    let r = a + b in
    if (a >= 0 && b >= 0 && r < 0) || (a < 0 && b < 0 && r >= 0) then raise Overflow;
    r

  let mul_ov a b =
    if a = 0 || b = 0 then 0
    else
      let r = a * b in
      if r / b <> a then raise Overflow;
      r

  module Vmap = Map.Make (String)

  type t = { coeffs : int Vmap.t; const : int }

  let zero = { coeffs = Vmap.empty; const = 0 }
  let const c = { coeffs = Vmap.empty; const = c }

  let var ?(coeff = 1) v =
    if coeff = 0 then zero else { coeffs = Vmap.singleton v coeff; const = 0 }

  let normalize_coeffs m = Vmap.filter (fun _ c -> c <> 0) m

  let add a b =
    {
      coeffs =
        normalize_coeffs
          (Vmap.union (fun _ x y -> Some (add_ov x y)) a.coeffs b.coeffs);
      const = add_ov a.const b.const;
    }

  let scale k t =
    if k = 0 then zero
    else
      { coeffs = Vmap.map (fun c -> mul_ov k c) t.coeffs; const = mul_ov k t.const }

  let sub a b = add a (scale (-1) b)

  let is_const t = Vmap.is_empty t.coeffs

  (* mirror of Linexpr.vars: fold prepends, so descending name order *)
  let vars t = Vmap.fold (fun v _ acc -> v :: acc) t.coeffs []

  let bindings t = Vmap.bindings t.coeffs

  let subst t v e =
    match Vmap.find_opt v t.coeffs with
    | None -> t
    | Some c -> add { t with coeffs = Vmap.remove v t.coeffs } (scale c e)

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let coeff_gcd t = Vmap.fold (fun _ c g -> gcd c g) t.coeffs 0

  let equal a b = a.const = b.const && Vmap.equal Int.equal a.coeffs b.coeffs

  let pp ppf t =
    let terms =
      Vmap.bindings t.coeffs
      |> List.map (fun (v, c) ->
             if c = 1 then v else if c = -1 then "-" ^ v else Fmt.str "%d%s" c v)
    in
    let parts =
      if t.const <> 0 || terms = [] then terms @ [ string_of_int t.const ] else terms
    in
    Fmt.string ppf (String.concat " + " parts)
end

type cstr = Eq of Lin.t | Geq of Lin.t

let pp_cstr ppf = function
  | Eq e -> Fmt.pf ppf "%a = 0" Lin.pp e
  | Geq e -> Fmt.pf ppf "%a >= 0" Lin.pp e

let cstr_equal a b =
  match (a, b) with
  | Eq x, Eq y | Geq x, Geq y -> Lin.equal x y
  | _ -> false

(* constraint constructors, total under overflow like the solver's *)
let trivially_true = Geq (Lin.const 0)
let c_le e1 e2 = try Geq (Lin.sub e2 e1) with Lin.Overflow -> trivially_true
let c_lt e1 e2 =
  try Geq (Lin.add (Lin.sub e2 e1) (Lin.const (-1))) with Lin.Overflow -> trivially_true
let c_ge e1 e2 = c_le e2 e1
let c_gt e1 e2 = c_lt e2 e1
let c_eq e1 e2 = try Eq (Lin.sub e1 e2) with Lin.Overflow -> trivially_true

type actx = {
  a_func : Ir.func;
  a_defs : (Ir.vid, Ir.def_site) Hashtbl.t;
  a_dom : Ssair.Dom.tree;
  a_memo : (Ir.vid, Lin.t option) Hashtbl.t;
  mutable a_visiting : Ir.vid list;
  a_unknowns : (Ir.value, string) Hashtbl.t;
  mutable a_n_unknowns : int;
}

let mk_actx f =
  {
    a_func = f;
    a_defs = Ir.def_table f;
    a_dom = Ssair.Dom.compute f;
    a_memo = Hashtbl.create 32;
    a_visiting = [];
    a_unknowns = Hashtbl.create 4;
    a_n_unknowns = 0;
  }

let sym_of_vid id = Fmt.str "v%d" id
let sym_of_param p = "p_" ^ p

let sym_of_unknown ctx (v : Ir.value) =
  match Hashtbl.find_opt ctx.a_unknowns v with
  | Some s -> s
  | None ->
    let s = Fmt.str "u%d" ctx.a_n_unknowns in
    ctx.a_n_unknowns <- ctx.a_n_unknowns + 1;
    Hashtbl.replace ctx.a_unknowns v s;
    s

let rec affine_of_value ctx (v : Ir.value) : Lin.t =
  match v with
  | Ir.Vint (n, _) -> Lin.const (Int64.to_int n)
  | Ir.Vparam p -> Lin.var (sym_of_param p)
  | Ir.Vreg id -> affine_of_vid ctx id
  | Ir.Vfloat _ | Ir.Vglobal _ | Ir.Vstr _ | Ir.Vundef _ ->
    Lin.var (sym_of_unknown ctx v)

and affine_of_vid ctx id : Lin.t =
  if List.mem id ctx.a_visiting then Lin.var (sym_of_vid id)
  else
    match Hashtbl.find_opt ctx.a_memo id with
    | Some (Some e) -> e
    | Some None -> Lin.var (sym_of_vid id)
    | None ->
      let e =
        match Hashtbl.find_opt ctx.a_defs id with
        | Some (Ir.Def_instr (i, _)) -> (
          match i.Ir.idesc with
          | Ir.Binop { op = Ast.Add; lhs; rhs; _ } ->
            Lin.add (affine_of_value ctx lhs) (affine_of_value ctx rhs)
          | Ir.Binop { op = Ast.Sub; lhs; rhs; _ } ->
            Lin.sub (affine_of_value ctx lhs) (affine_of_value ctx rhs)
          | Ir.Binop { op = Ast.Mul; lhs = Ir.Vint (n, _); rhs; _ } ->
            Lin.scale (Int64.to_int n) (affine_of_value ctx rhs)
          | Ir.Binop { op = Ast.Mul; lhs; rhs = Ir.Vint (n, _); _ } ->
            Lin.scale (Int64.to_int n) (affine_of_value ctx lhs)
          | Ir.Cast { to_ty; cval; _ } when Ty.is_integer to_ty ->
            affine_of_value ctx cval
          | _ -> Lin.var (sym_of_vid id))
        | Some (Ir.Def_phi _) -> Lin.var (sym_of_vid id)
        | None -> Lin.var (sym_of_vid id)
      in
      Hashtbl.replace ctx.a_memo id (Some e);
      e

let constraint_of_cmp ctx op lhs rhs polarity : cstr option =
  let a = affine_of_value ctx lhs and b = affine_of_value ctx rhs in
  match (op, polarity) with
  | Ast.Lt, true -> Some (c_lt a b)
  | Ast.Lt, false -> Some (c_ge a b)
  | Ast.Le, true -> Some (c_le a b)
  | Ast.Le, false -> Some (c_gt a b)
  | Ast.Gt, true -> Some (c_gt a b)
  | Ast.Gt, false -> Some (c_le a b)
  | Ast.Ge, true -> Some (c_ge a b)
  | Ast.Ge, false -> Some (c_lt a b)
  | Ast.Eq, true -> Some (c_eq a b)
  | Ast.Ne, false -> Some (c_eq a b)
  | _ -> None

let rec cond_constraints ctx id pol depth : cstr list =
  if depth > 8 then []
  else
    match Hashtbl.find_opt ctx.a_defs id with
    | Some (Ir.Def_instr ({ idesc = Ir.Binop { op; lhs; rhs; _ }; _ }, _)) -> (
      match (op, lhs, rhs) with
      | Ast.Ne, Ir.Vreg x, Ir.Vint (0L, _) -> cond_constraints ctx x pol (depth + 1)
      | Ast.Eq, Ir.Vreg x, Ir.Vint (0L, _) ->
        cond_constraints ctx x (not pol) (depth + 1)
      | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _ ->
        Option.to_list (constraint_of_cmp ctx op lhs rhs pol)
      | _ -> [])
    | Some
        (Ir.Def_instr
           ({ idesc = Ir.Unop { uop = Ast.Lnot; operand = Ir.Vreg x; _ }; _ }, _)) ->
      cond_constraints ctx x (not pol) (depth + 1)
    | Some (Ir.Def_phi (p, pblk)) -> (
      match p.Ir.incoming with
      | [ (b1, v1); (b2, v2) ] -> (
        let classify (ba, va) (br, vr) =
          match ((Ir.block ctx.a_func ba).Ir.termin, va) with
          | Ir.Cbr (Ir.Vreg c, tb, eb), Ir.Vreg vc when vc = c && tb <> eb ->
            if eb = pblk && tb = br then Some (`And, c, vr)
            else if tb = pblk && eb = br then Some (`Or, c, vr)
            else None
          | _ -> None
        in
        let shape =
          match classify (b1, v1) (b2, v2) with
          | Some s -> Some s
          | None -> classify (b2, v2) (b1, v1)
        in
        match shape with
        | Some (`And, c, vr) when pol -> (
          match vr with
          | Ir.Vreg r ->
            cond_constraints ctx c true (depth + 1)
            @ cond_constraints ctx r true (depth + 1)
          | _ -> cond_constraints ctx c true (depth + 1))
        | Some (`Or, c, vr) when not pol -> (
          match vr with
          | Ir.Vreg r ->
            cond_constraints ctx c false (depth + 1)
            @ cond_constraints ctx r false (depth + 1)
          | _ -> cond_constraints ctx c false (depth + 1))
        | _ -> [])
      | _ -> [])
    | _ -> []

let dominating_constraints ctx bid : cstr list =
  let preds = Ir.predecessors ctx.a_func in
  let single_pred blk from =
    match Hashtbl.find_opt preds blk with Some [ p ] -> p = from | _ -> false
  in
  let rec climb child acc =
    match Ssair.Dom.idom ctx.a_dom child with
    | None -> acc
    | Some parent when parent = child -> acc
    | Some parent ->
      let acc =
        match (Ir.block ctx.a_func parent).Ir.termin with
        | Ir.Cbr (Ir.Vreg c, tb, eb) when tb <> eb -> (
          let polarity =
            if child = tb && single_pred child parent then Some true
            else if child = eb && single_pred child parent then Some false
            else None
          in
          match polarity with
          | None -> acc
          | Some pol -> cond_constraints ctx c pol 0 @ acc)
        | _ -> acc
      in
      climb parent acc
  in
  climb bid []

let induction_constraints ctx (e : Lin.t) : cstr list =
  let cs = ref [] in
  List.iter
    (fun sym ->
      match
        if String.length sym > 1 && sym.[0] = 'v' then
          int_of_string_opt (String.sub sym 1 (String.length sym - 1))
        else None
      with
      | None -> ()
      | Some id -> (
        match Hashtbl.find_opt ctx.a_defs id with
        | Some (Ir.Def_phi (p, _)) ->
          let steps = ref [] and inits = ref [] and ok = ref true in
          List.iter
            (fun (_, v) ->
              match v with
              | Ir.Vreg w -> (
                match Hashtbl.find_opt ctx.a_defs w with
                | Some (Ir.Def_instr ({ idesc = Ir.Binop { op; lhs; rhs; _ }; _ }, _))
                  -> (
                  match (op, lhs, rhs) with
                  | Ast.Add, Ir.Vreg x, Ir.Vint (c, _) when x = p.Ir.pid ->
                    steps := Int64.to_int c :: !steps
                  | Ast.Add, Ir.Vint (c, _), Ir.Vreg x when x = p.Ir.pid ->
                    steps := Int64.to_int c :: !steps
                  | Ast.Sub, Ir.Vreg x, Ir.Vint (c, _) when x = p.Ir.pid ->
                    steps := -Int64.to_int c :: !steps
                  | _ ->
                    ctx.a_visiting <- p.Ir.pid :: ctx.a_visiting;
                    inits := affine_of_value ctx v :: !inits;
                    ctx.a_visiting <- List.tl ctx.a_visiting)
                | _ ->
                  ctx.a_visiting <- p.Ir.pid :: ctx.a_visiting;
                  inits := affine_of_value ctx v :: !inits;
                  ctx.a_visiting <- List.tl ctx.a_visiting)
              | Ir.Vint (n, _) -> inits := Lin.const (Int64.to_int n) :: !inits
              | Ir.Vparam q -> inits := Lin.var (sym_of_param q) :: !inits
              | _ -> ok := false)
            p.Ir.incoming;
          if !ok && !inits <> [] then begin
            let phi_e = Lin.var sym in
            if List.for_all (fun s -> s >= 0) !steps then
              List.iter (fun init -> cs := c_ge phi_e init :: !cs) !inits
            else if List.for_all (fun s -> s <= 0) !steps then
              List.iter (fun init -> cs := c_le phi_e init :: !cs) !inits
          end
        | _ -> ()))
    (Lin.vars e);
  !cs

let hyp_clamp = 1 lsl 40

let range_hypotheses (aq : qmir option) ~bid (e : Lin.t) : cstr list =
  match aq with
  | None -> []
  | Some q ->
    List.concat_map
      (fun sym ->
        match range_of_sym q ~at:bid sym with
        | None -> []
        | Some itv ->
          let v = Lin.var sym in
          let lo =
            match Itv.finite_lo itv with
            | Some l when abs l <= hyp_clamp -> [ c_ge v (Lin.const l) ]
            | _ -> []
          in
          let hi =
            match Itv.finite_hi itv with
            | Some h when abs h <= hyp_clamp -> [ c_le v (Lin.const h) ]
            | _ -> []
          in
          lo @ hi)
      (Lin.vars e)

let opaque_syms ctx (e : Lin.t) =
  List.exists
    (fun sym ->
      match
        if String.length sym > 1 && sym.[0] = 'v' then
          int_of_string_opt (String.sub sym 1 (String.length sym - 1))
        else None
      with
      | None -> not (String.length sym > 2 && String.sub sym 0 2 = "p_")
      | Some id -> (
        match Hashtbl.find_opt ctx.a_defs id with
        | Some (Ir.Def_phi _) -> false
        | _ -> true))
    (Lin.vars e)

(* -- 6. Refuter: rational Fourier–Motzkin with integer tightening --------- *)

(* Decide whether a constraint system is infeasible over the integers,
   without solver search: repeatedly (a) normalize every constraint by
   the gcd of its coefficients — an equality whose constant is not
   divisible is an immediate contradiction, an inequality's constant
   rounds down (the integer cut) — (b) substitute away equalities with
   a unit coefficient, and (c) eliminate one variable of the remaining
   inequalities by pairwise Fourier–Motzkin combination.  Each step is
   a sound consequence over the integers, so reaching [c >= 0] with
   [c < 0] (or an unsatisfiable equality) proves the original system
   infeasible.  The procedure is conservative: overflow, blow-up past
   the budget, or a system it cannot reduce all answer "not refuted".
   For the deletion-minimal cores the emitter records — a handful of
   constraints over loop counters and bounds — elimination terminates
   in a few steps. *)

let fm_budget = 400

let refute (cs : cstr list) : bool =
  let exception Contradiction in
  let exception Cannot in
  let floordiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
  let normalize c =
    match c with
    | Eq e ->
      if Lin.is_const e then if e.Lin.const <> 0 then raise Contradiction else None
      else
        let g = Lin.coeff_gcd e in
        if e.Lin.const mod g <> 0 then raise Contradiction
        else
          Some
            (Eq
               {
                 Lin.coeffs = Lin.Vmap.map (fun k -> k / g) e.Lin.coeffs;
                 const = e.Lin.const / g;
               })
    | Geq e ->
      if Lin.is_const e then if e.Lin.const < 0 then raise Contradiction else None
      else
        let g = Lin.coeff_gcd e in
        Some
          (Geq
             {
               Lin.coeffs = Lin.Vmap.map (fun k -> k / g) e.Lin.coeffs;
               const = floordiv e.Lin.const g;
             })
  in
  let rec go cs depth =
    if depth > 64 then raise Cannot;
    let cs = List.filter_map normalize cs in
    if List.length cs > fm_budget then raise Cannot;
    (* substitute one unit-coefficient equality if any *)
    let unit_eq =
      List.find_map
        (function
          | Eq e ->
            List.find_map
              (fun (v, k) ->
                if k = 1 || k = -1 then Some (v, k, e) else None)
              (Lin.bindings e)
          | Geq _ -> None)
        cs
    in
    match unit_eq with
    | Some (v, k, e) ->
      (* k*v + rest = 0  =>  v = -(rest)/k; with k = ±1 exact *)
      let rest = { e with Lin.coeffs = Lin.Vmap.remove v e.Lin.coeffs } in
      let vdef = Lin.scale (-k) rest in
      let cs' =
        List.filter_map
          (fun c ->
            match c with
            | Eq x when Lin.equal x e -> None
            | Eq x -> Some (Eq (Lin.subst x v vdef))
            | Geq x -> Some (Geq (Lin.subst x v vdef)))
          cs
      in
      go cs' (depth + 1)
    | None ->
      (* split remaining equalities, then eliminate one variable *)
      let geqs =
        List.concat_map
          (function Eq e -> [ e; Lin.scale (-1) e ] | Geq e -> [ e ])
          cs
      in
      let vars =
        List.sort_uniq compare (List.concat_map (fun e -> Lin.vars e) geqs)
      in
      (match vars with
      | [] ->
        if List.exists (fun e -> e.Lin.const < 0) geqs then raise Contradiction
        else raise Cannot
      | _ ->
        (* pick the variable minimizing the pos*neg product *)
        let cost v =
          let pos = List.length (List.filter (fun e -> Lin.Vmap.find_opt v e.Lin.coeffs > Some 0) geqs) in
          let neg =
            List.length
              (List.filter
                 (fun e ->
                   match Lin.Vmap.find_opt v e.Lin.coeffs with
                   | Some k -> k < 0
                   | None -> false)
                 geqs)
          in
          (pos * neg) - pos - neg
        in
        let v = List.fold_left (fun b v -> if cost v < cost b then v else b) (List.hd vars) vars in
        let pos, neg, rest =
          List.fold_left
            (fun (p, n, r) e ->
              match Lin.Vmap.find_opt v e.Lin.coeffs with
              | Some k when k > 0 -> (e :: p, n, r)
              | Some _ -> (p, e :: n, r)
              | None -> (p, n, e :: r))
            ([], [], []) geqs
        in
        let combos =
          List.concat_map
            (fun ep ->
              let a = Lin.Vmap.find v ep.Lin.coeffs in
              List.map
                (fun en ->
                  let b = -Lin.Vmap.find v en.Lin.coeffs in
                  (* b*ep + a*en eliminates v; a,b > 0 keeps direction *)
                  Lin.add (Lin.scale b ep) (Lin.scale a en))
                neg)
            pos
        in
        if List.length combos + List.length rest > fm_budget then raise Cannot;
        go (List.map (fun e -> Geq e) (combos @ rest)) (depth + 1))
  in
  match go cs 0 with
  | () -> false
  | exception Contradiction -> true
  | exception Cannot -> false
  | exception Lin.Overflow -> false

(* -- 7. Certificate JSON decoding ----------------------------------------- *)

exception Bad of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad m)) fmt

let jstr name j =
  match Option.bind (J.member name j) J.to_string with
  | Some s -> s
  | None -> bad "missing or non-string field %S" name

let jstr_opt name j =
  match J.member name j with
  | Some J.Null | None -> None
  | Some v -> (
    match J.to_string v with Some s -> Some s | None -> bad "non-string field %S" name)

let jint name j =
  match Option.bind (J.member name j) J.to_int with
  | Some n -> n
  | None -> bad "missing or non-integer field %S" name

let jbool name j =
  match Option.bind (J.member name j) J.to_bool with
  | Some b -> b
  | None -> bad "missing or non-boolean field %S" name

let jlist name j =
  match Option.bind (J.member name j) J.to_list with
  | Some l -> l
  | None -> bad "missing or non-array field %S" name

(* wide integers (interval bounds, linexpr constants) travel as strings
   to dodge double rounding above 2^53 *)
let jwide name j =
  match J.member name j with
  | Some (J.Str s) -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> bad "field %S is not an integer string" name)
  | _ -> bad "missing or non-string integer field %S" name

let jwide_opt name j =
  match J.member name j with
  | Some J.Null | None -> None
  | Some (J.Str s) -> (
    match int_of_string_opt s with
    | Some n -> Some n
    | None -> bad "field %S is not an integer string" name)
  | Some _ -> bad "field %S is not an integer string" name

let itv_of_json j =
  match j with
  | J.Null -> Itv.Bot
  | _ ->
    let lo = match jwide_opt "lo" j with Some l -> Itv.Fin l | None -> Itv.MInf in
    let hi = match jwide_opt "hi" j with Some h -> Itv.Fin h | None -> Itv.PInf in
    if Itv.bcmp lo hi > 0 then bad "malformed interval (lo > hi)" else Itv.Iv (lo, hi)

let lin_of_json j =
  let const = jwide "const" j in
  let terms =
    List.map
      (function
        | J.Arr [ J.Str v; J.Str k ] -> (
          match int_of_string_opt k with
          | Some k -> (v, k)
          | None -> bad "linexpr coefficient is not an integer string")
        | _ -> bad "malformed linexpr term")
      (jlist "terms" j)
  in
  List.fold_left
    (fun acc (v, k) ->
      if k = 0 then bad "linexpr term with zero coefficient"
      else if Lin.Vmap.mem v acc.Lin.coeffs then bad "duplicate linexpr variable %s" v
      else { acc with Lin.coeffs = Lin.Vmap.add v k acc.Lin.coeffs })
    (Lin.const const) terms

let cstr_of_json j =
  let e = lin_of_json j in
  match jstr "op" j with
  | "eq" -> Eq e
  | "geq" -> Geq e
  | op -> bad "unknown constraint operator %S" op

let refutable (cs : J.t list) : bool =
  match List.map cstr_of_json cs with
  | cs -> refute cs
  | exception Bad _ -> false

(* -- 8. Bundle validation -------------------------------------------------- *)

type failure = { ce_id : string; ce_msg : string }

type outcome = {
  passed : int;
  failures : failure list;
  skipped : int;  (* manifest-declared skipped obligations *)
}

let schema = "safeflow-cert/1"

let decode_absenv (txt : string) : (string, fsum) Hashtbl.t =
  let j = match J.parse txt with Ok j -> j | Error e -> bad "absenv: %s" e in
  if jstr "schema" j <> schema then bad "absenv: wrong schema";
  let sums = Hashtbl.create 16 in
  List.iter
    (fun fj ->
      let name = jstr "func" fj in
      let params =
        List.map
          (function
            | J.Arr [ J.Str p; ij ] -> (p, itv_of_json ij)
            | _ -> bad "absenv: malformed parameter entry")
          (jlist "params" fj)
      in
      let env = Hashtbl.create 64 in
      List.iter
        (function
          | J.Arr [ J.Num vid; ij ] ->
            let vid = int_of_float vid in
            if Hashtbl.mem env vid then bad "absenv: duplicate fact for %%%d" vid;
            Hashtbl.replace env vid (itv_of_json ij)
          | _ -> bad "absenv: malformed environment entry")
        (jlist "env" fj);
      let ret =
        match J.member "ret" fj with Some ij -> itv_of_json ij | None -> bad "absenv: missing ret"
      in
      let ret_raw =
        match J.member "ret_raw" fj with
        | Some ij -> itv_of_json ij
        | None -> bad "absenv: missing ret_raw"
      in
      if Hashtbl.mem sums name then bad "absenv: duplicate function %s" name;
      Hashtbl.replace sums name
        { fs_params = params; fs_ret = ret; fs_ret_raw = ret_raw; fs_env = env })
    (jlist "funcs" j);
  sums

let verify_absenv ~(ir : Ir.program) (sums : (string, fsum) Hashtbl.t) :
    (unit, string) result =
  let first = first_bodies ir in
  let ir_names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) first []) in
  let sum_names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) sums []) in
  if ir_names <> sum_names then
    Error "absenv: recorded function set does not match the program"
  else
    let rec go = function
      | [] -> verify_params ~ir sums
      | (f : Ir.func) :: rest when Hashtbl.find first f.Ir.fname != f -> go rest
      | (f : Ir.func) :: rest -> (
        match verify_function ~ir sums f (Hashtbl.find sums f.Ir.fname) with
        | Ok () -> go rest
        | Error _ as e -> e)
    in
    go ir.Ir.funcs

(* find the instruction carrying [iid] and the block holding it *)
let find_instr (f : Ir.func) iid : (Ir.instr * Ir.bid) option =
  List.find_map
    (fun (b : Ir.block) ->
      List.find_map
        (fun (i : Ir.instr) -> if i.Ir.iid = iid then Some (i, b.Ir.bbid) else None)
        b.Ir.instrs)
    f.Ir.blocks

let loc_matches j (loc : Loc.t) =
  jstr "file" j = loc.Loc.file && jint "line" j = loc.Loc.line
  && jint "col" j = loc.Loc.col

let find_func (ir : Ir.program) name =
  match List.find_opt (fun (f : Ir.func) -> f.Ir.fname = name) ir.Ir.funcs with
  | Some f -> f
  | None -> bad "function %s not in program" name

(* ---- witness certificates ---- *)

let check_witness cert =
  let steps = jlist "steps" cert in
  if steps = [] then bad "witness certificate with no steps";
  let keys = Hashtbl.create 16 in
  ignore
    (List.fold_left
       (fun (idx, prev) sj ->
         let desc = jstr "desc" sj in
         let why = jstr_opt "why" sj in
         let key = jstr "key" sj in
         let parent = jstr_opt "parent" sj in
         let link = jstr "link" sj in
         let expect = step_link ~desc ~why ~key ~prev in
         if link <> expect then
           bad "witness step %d: link digest mismatch (chain broken at %S)" idx desc;
         (match parent with
         | None -> ()  (* sources and synthetic narrative steps *)
         | Some pk ->
           if pk = "" || not (Hashtbl.mem keys pk) then
             bad "witness step %d: parent %S is not the key of an earlier step" idx pk);
         if key <> "" then Hashtbl.replace keys key ();
         (idx + 1, link))
       (0, "") steps)

(* ---- site certificates (P1–P3) ---- *)

let dealloc_functions = [ "shmdt"; "shmctl"; "free" ]

let check_site ~ir cert =
  let rule = jstr "rule" cert in
  let f = find_func ir (jstr "func" cert) in
  let matching (i : Ir.instr) =
    loc_matches cert i.Ir.iloc
    &&
    match (rule, i.Ir.idesc) with
    | "P1", Ir.Call { callee; _ } -> List.mem callee dealloc_functions
    | "P2", Ir.Store _ -> true
    | "P3", Ir.Cast _ -> true
    | _ -> false
  in
  if not (List.mem rule [ "P1"; "P2"; "P3" ]) then bad "unknown site rule %S" rule;
  if not (List.exists matching (Ir.all_instrs f)) then
    bad "no %s-shaped instruction at the recorded location in %s" rule f.Ir.fname

(* ---- obligation certificates (A1/A2 bounds) ---- *)

let check_obligation ~(ir : Ir.program) ~(regions : (string * int) list)
    ~(qmir_of : string -> qmir option) cert =
  let f = find_func ir (jstr "func" cert) in
  let iid = jint "iid" cert in
  let i, bid =
    match find_instr f iid with
    | Some ib -> ib
    | None -> bad "no instruction %%%d in %s" iid f.Ir.fname
  in
  if jint "bid" cert <> bid then bad "recorded block does not hold %%%d" iid;
  if not (loc_matches cert i.Ir.iloc) then
    bad "recorded location does not match instruction %%%d" iid;
  let base_off = jint "base_off" cert in
  let elsize = jint "elsize" cert in
  let bound = jint "bound" cert in
  let region = jstr "region" cert in
  let idx =
    match i.Ir.idesc with
    | Ir.Gep { kind = Ir.Gindex elt; idx; _ } ->
      if max 1 (Ty.sizeof ir.Ir.env elt) <> elsize then
        bad "recorded element size %d does not match the indexed type" elsize;
      idx
    | _ -> bad "%%%d is not an array-indexing gep" iid
  in
  (match List.assoc_opt region regions with
  | None -> bad "region %s is not a shared-memory region of the program" region
  | Some size ->
    if jint "region_size" cert <> size then
      bad "recorded size of region %s does not match the program (%d)" region size;
    if base_off < 0 || base_off > size then bad "base offset %d outside region" base_off;
    if (size - base_off) / elsize <> bound then
      bad "recorded bound %d does not equal (%d - %d) / %d" bound size base_off elsize);
  let discharge = jstr "discharge" cert in
  let index_kind = jstr "kind" (Option.get (J.member "index" cert)) in
  match discharge with
  | "const" -> (
    if index_kind <> "const" then bad "const discharge with non-constant index";
    match idx with
    | Ir.Vint (n, _) ->
      let n = Int64.to_int n in
      if jint "value" (Option.get (J.member "index" cert)) <> n then
        bad "recorded constant index does not match the instruction";
      if n < 0 || n >= bound then
        bad "constant index %d is outside [0,%d)" n bound
    | _ -> bad "const discharge but the index is not a constant")
  | "ranges" | "omega" | "omega+ranges" -> (
    (match idx with
    | Ir.Vint _ -> bad "counted obligation with a constant index"
    | _ -> ());
    let aq = qmir_of f.Ir.fname in
    let actx = mk_actx f in
    (* canonical derivation order: the index expression, then the
       dominating branch constraints, then the induction facts, then the
       range hypotheses — emission uses the same fresh-context order, so
       the "u<n>" unknown symbols line up *)
    let idx_e = affine_of_value actx idx in
    let doms = dominating_constraints actx bid in
    let inds = induction_constraints actx idx_e in
    let hyps = range_hypotheses aq ~bid idx_e in
    let expect_rule = if opaque_syms actx idx_e then "A2" else "A1" in
    if jstr "rule" cert <> expect_rule then
      bad "recorded rule %S does not match the derived %S" (jstr "rule" cert)
        expect_rule;
    let check_side name goal_c =
      let sj =
        match J.member name (Option.get (J.member "sides" cert)) with
        | Some s -> s
        | None -> bad "missing %s side" name
      in
      match jstr "by" sj with
      | "ranges" -> (
        match aq with
        | None -> bad "%s side claims a range proof but the bundle has no absenv" name
        | Some q ->
          let rng = range_of_value q ~at:bid idx in
          let proved =
            if name = "low" then
              Itv.is_bot rng
              || (match Itv.finite_lo rng with Some l -> l >= 0 | None -> false)
            else
              Itv.is_bot rng
              ||
              match Itv.finite_hi rng with
              | Some h -> h <= bound - 1
              | None -> false
          in
          if not (proved) then
            bad "%s side: the recorded ranges do not prove the bound (index in %s)"
              name (itv_str rng))
      | "omega" ->
        let goal = cstr_of_json (Option.get (J.member "goal" sj)) in
        if not (cstr_equal goal goal_c) then
          bad "%s side: recorded goal %a is not the canonical goal %a" name pp_cstr
            goal pp_cstr goal_c;
        let pool = doms @ inds @ hyps in
        let core =
          List.map
            (fun cj ->
              let c = cstr_of_json cj in
              if not (List.exists (cstr_equal c) pool) then
                bad
                  "%s side: core constraint %a is not among the derived hypotheses"
                  name pp_cstr c;
              c)
            (jlist "core" sj)
        in
        if not (refute (goal_c :: core)) then
          bad "%s side: could not refute the goal from the recorded core" name
      | by -> bad "unknown side discharge %S" by
    in
    check_side "low" (c_le idx_e (Lin.const (-1)));
    check_side "high" (c_ge idx_e (Lin.const bound));
    (* discharge-name consistency with the sides *)
    let side_by name =
      jstr "by" (Option.get (J.member name (Option.get (J.member "sides" cert))))
    in
    let lo_by = side_by "low" and hi_by = side_by "high" in
    (match discharge with
    | "ranges" ->
      if lo_by <> "ranges" || hi_by <> "ranges" then
        bad "discharge \"ranges\" with a non-range side"
    | _ ->
      if lo_by <> "omega" && hi_by <> "omega" then
        bad "discharge %S without an omega side" discharge))
  | d -> bad "unknown obligation discharge %S" d

(* ---- driver ---- *)

let validate ~(ir : Ir.program) ~(regions : (string * int) list)
    ~(expect : (string * string) list)
    ?(check_finding : (J.t -> (unit, string) result) option)
    ~(manifest : J.t) ~(load : string -> (string, string) result) () : outcome =
  let failures = ref [] in
  let passed = ref 0 in
  let record_failure id msg = failures := { ce_id = id; ce_msg = msg } :: !failures in
  (try
     if jstr "schema" manifest <> schema then bad "manifest: unknown schema";
     List.iter
       (fun (name, digest) ->
         if jstr name manifest <> digest then
           bad "manifest: %s digest does not match the freshly parsed program" name)
       expect
   with Bad m -> record_failure "<manifest>" m);
  if !failures <> [] then { passed = 0; failures = List.rev !failures; skipped = 0 }
  else begin
    let absint_on = try jbool "absint" manifest with Bad _ -> false in
    let sums =
      if not absint_on then None
      else
        try
          let aj =
            match J.member "absenv" manifest with
            | Some a when a <> J.Null -> a
            | _ -> bad "manifest: absint on but no absenv recorded"
          in
          let path = jstr "path" aj in
          let body =
            match load path with Ok b -> b | Error e -> bad "absenv: %s" e
          in
          if md5_hex body <> jstr "digest" aj then
            bad "absenv: content digest mismatch";
          let sums = decode_absenv body in
          (match verify_absenv ~ir sums with Ok () -> () | Error m -> bad "%s" m);
          Some sums
        with Bad m ->
          record_failure "<absenv>" m;
          None
    in
    if absint_on && sums = None then
      { passed = 0; failures = List.rev !failures; skipped = 0 }
    else begin
      let qmirs = Hashtbl.create 8 in
      let qmir_of fname =
        match sums with
        | None -> None
        | Some sums -> (
          match Hashtbl.find_opt qmirs fname with
          | Some q -> Some q
          | None -> (
            match Hashtbl.find_opt sums fname with
            | None -> None
            | Some fs ->
              let q = make_qmir (find_func ir fname) sums fs in
              Hashtbl.replace qmirs fname q;
              Some q))
      in
      let skipped =
        match J.member "skipped" manifest with
        | Some (J.Arr l) -> List.length l
        | _ -> 0
      in
      let certs = try jlist "certs" manifest with Bad _ -> [] in
      List.iter
        (fun entry ->
          let id = try jstr "id" entry with Bad _ -> "<unknown>" in
          try
            let path = jstr "path" entry in
            let body =
              match load path with Ok b -> b | Error e -> bad "%s" e
            in
            if md5_hex body <> jstr "digest" entry then
              bad "certificate content digest mismatch";
            let cert =
              match J.parse body with Ok j -> j | Error e -> bad "parse: %s" e
            in
            if jstr "schema" cert <> schema then bad "unknown certificate schema";
            if jstr "id" cert <> id then bad "certificate id does not match manifest";
            (match jstr "kind" cert with
            | "witness" ->
              check_witness cert;
              (match check_finding with
              | Some f -> (
                match f cert with Ok () -> () | Error m -> bad "%s" m)
              | None -> ())
            | "finding" -> (
              let _ = find_func ir (jstr "func" cert) in
              match check_finding with
              | Some f -> (
                match f cert with Ok () -> () | Error m -> bad "%s" m)
              | None -> ())
            | "site" -> check_site ~ir cert
            | "obligation" -> check_obligation ~ir ~regions ~qmir_of cert
            | k -> bad "unknown certificate kind %S" k);
            incr passed
          with
          | Bad m -> record_failure id m
          | Loc.Error (_, m) -> record_failure id m)
        certs;
      { passed = !passed; failures = List.rev !failures; skipped }
    end
  end

let validate_bundle ~ir ~regions ~expect ?check_finding (dir : string) : outcome =
  let read path =
    let full = Filename.concat dir path in
    match
      let ic = open_in_bin full in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with
    | s -> Ok s
    | exception Sys_error e -> Error e
  in
  match read "manifest.json" with
  | Error e ->
    { passed = 0; failures = [ { ce_id = "<manifest>"; ce_msg = e } ]; skipped = 0 }
  | Ok txt -> (
    match J.parse txt with
    | Error e ->
      {
        passed = 0;
        failures = [ { ce_id = "<manifest>"; ce_msg = "parse: " ^ e } ];
        skipped = 0;
      }
    | Ok manifest -> validate ~ir ~regions ~expect ?check_finding ~manifest ~load:read ())

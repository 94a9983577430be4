(** Dominator tree (Cooper–Harvey–Kennedy iterative algorithm), dominance
    frontiers (Cytron et al.), and post-dominators for control-dependence
    computation. *)

type tree = {
  idom : (Ir.bid, Ir.bid) Hashtbl.t;      (** immediate dominator; entry maps to itself *)
  children : (Ir.bid, Ir.bid list) Hashtbl.t;
  order : Ir.bid list;                    (** reverse postorder used for the computation *)
  root : Ir.bid;
}

(** Generic CHK dominator computation over an arbitrary rooted graph. *)
let compute_generic ~(root : Ir.bid) ~(nodes : Ir.bid list)
    ~(preds : Ir.bid -> Ir.bid list) ~(succs : Ir.bid -> Ir.bid list) : tree =
  (* reverse postorder from root *)
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs n =
    if not (Hashtbl.mem visited n) then begin
      Hashtbl.replace visited n ();
      List.iter dfs (succs n);
      order := n :: !order
    end
  in
  dfs root;
  let rpo = !order in
  ignore nodes;
  let rpo_num = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace rpo_num n i) rpo;
  let idom : (Ir.bid, Ir.bid) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace idom root root;
  let intersect b1 b2 =
    let rec go f1 f2 =
      if f1 = f2 then f1
      else if Hashtbl.find rpo_num f1 > Hashtbl.find rpo_num f2 then
        go (Hashtbl.find idom f1) f2
      else go f1 (Hashtbl.find idom f2)
    in
    go b1 b2
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if n <> root then begin
          let processed_preds =
            List.filter (fun p -> Hashtbl.mem idom p && Hashtbl.mem rpo_num p) (preds n)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if Hashtbl.find_opt idom n <> Some new_idom then begin
              Hashtbl.replace idom n new_idom;
              changed := true
            end
        end)
      rpo
  done;
  let children = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace children n []) rpo;
  List.iter
    (fun n ->
      if n <> root then
        match Hashtbl.find_opt idom n with
        | Some p ->
          let old = Option.value ~default:[] (Hashtbl.find_opt children p) in
          Hashtbl.replace children p (n :: old)
        | None -> ())
    rpo;
  { idom; children; order = rpo; root }

(** Dominator tree of [f]'s CFG. *)
let compute (f : Ir.func) : tree =
  let preds_tbl = Ir.predecessors f in
  let preds n = Option.value ~default:[] (Hashtbl.find_opt preds_tbl n) in
  let blocks = Ir.block_table f in
  let succs n =
    match Hashtbl.find_opt blocks n with Some b -> Ir.successors f b | None -> []
  in
  compute_generic ~root:f.fentry ~nodes:(List.map (fun b -> b.Ir.bbid) f.blocks) ~preds ~succs

let idom t n = if n = t.root then None else Hashtbl.find_opt t.idom n

let children t n = Option.value ~default:[] (Hashtbl.find_opt t.children n)

(** Does [a] dominate [b] (reflexively)? *)
let dominates t a b =
  let rec go n = if n = a then true else if n = t.root then false else go (Hashtbl.find t.idom n) in
  if not (Hashtbl.mem t.idom b) then false else go b

(* [a] dominates [b] iff [b]'s preorder interval in the tree nests in
   [a]'s; nodes outside the tree (unreachable) dominate nothing and are
   dominated by nothing, as in [dominates] *)
let dominance_oracle t =
  let enter = Hashtbl.create 64 and leave = Hashtbl.create 64 in
  let clock = ref 0 in
  let rec number n =
    Hashtbl.replace enter n !clock;
    incr clock;
    List.iter number (children t n);
    Hashtbl.replace leave n !clock
  in
  number t.root;
  fun a b ->
    match (Hashtbl.find_opt enter a, Hashtbl.find_opt enter b) with
    | Some ea, Some eb -> ea <= eb && Hashtbl.find leave b <= Hashtbl.find leave a
    | _ -> false

(** Dominance frontiers per Cytron et al. *)
let frontiers (f : Ir.func) (t : tree) : (Ir.bid, Ir.bid list) Hashtbl.t =
  let df = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace df b.Ir.bbid []) f.blocks;
  let preds_tbl = Ir.predecessors f in
  List.iter
    (fun b ->
      let n = b.Ir.bbid in
      let preds = Option.value ~default:[] (Hashtbl.find_opt preds_tbl n) in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            if Hashtbl.mem t.idom p || p = t.root then begin
              let runner = ref p in
              let idom_n = Hashtbl.find t.idom n in
              while !runner <> idom_n do
                let old = Option.value ~default:[] (Hashtbl.find_opt df !runner) in
                if not (List.mem n old) then Hashtbl.replace df !runner (n :: old);
                runner := Hashtbl.find t.idom !runner
              done
            end)
          preds)
    f.blocks;
  df

(* -- Post-dominators ------------------------------------------------------ *)

(** Post-dominator tree: dominators of the reversed CFG, rooted at a
    virtual exit node that all [Ret]/[Unreachable] blocks flow into.
    The virtual exit has id [-1]. *)
let virtual_exit : Ir.bid = -1

let compute_post (f : Ir.func) : tree =
  let preds_tbl = Ir.predecessors f in
  let blocks = Ir.block_table f in
  let exits =
    List.filter_map
      (fun b ->
        match b.Ir.termin with
        | Ir.Ret _ | Ir.Unreachable -> Some b.Ir.bbid
        | _ -> None)
      f.blocks
  in
  (* infinite loops (e.g. the periodic "while(1)" control loop) have no
     path to a return; promote representatives of such regions to exits so
     every block is post-dominated by the virtual exit *)
  let exits =
    let reaches_exit = Hashtbl.create 16 in
    let rec mark n =
      if not (Hashtbl.mem reaches_exit n) then begin
        Hashtbl.replace reaches_exit n ();
        List.iter mark (Option.value ~default:[] (Hashtbl.find_opt preds_tbl n))
      end
    in
    List.iter mark exits;
    let extra = ref [] in
    let rec close () =
      let stuck =
        List.filter
          (fun b -> not (Hashtbl.mem reaches_exit b.Ir.bbid))
          f.blocks
      in
      match stuck with
      | [] -> ()
      | b :: _ ->
        extra := b.Ir.bbid :: !extra;
        mark b.Ir.bbid;
        close ()
    in
    close ();
    exits @ !extra
  in
  let is_exit = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace is_exit n ()) exits;
  (* reversed edges: succs in reverse graph = CFG preds (+ virtual exit) *)
  let rsuccs n =
    if n = virtual_exit then exits
    else Option.value ~default:[] (Hashtbl.find_opt preds_tbl n)
  in
  let rpreds n =
    if n = virtual_exit then []
    else
      let cfg_succs =
        match Hashtbl.find_opt blocks n with Some b -> Ir.successors f b | None -> []
      in
      if Hashtbl.mem is_exit n then virtual_exit :: cfg_succs else cfg_succs
  in
  compute_generic ~root:virtual_exit
    ~nodes:(virtual_exit :: List.map (fun b -> b.Ir.bbid) f.blocks)
    ~preds:rpreds ~succs:rsuccs

(** Interning (hash-consing) support for the sparse phase-3 engine: see
    the interface for the rationale.  The reverse array grows by
    doubling; ids are dense and start at 0, so clients can mirror any
    per-entity attribute in a plain array. *)

type 'a t = {
  tbl : ('a, int) Hashtbl.t;
  mutable rev : 'a array;
  mutable len : int;
}

let create n = { tbl = Hashtbl.create n; rev = [||]; len = 0 }

let c_hits = Telemetry.counter "intern.hits"
let c_misses = Telemetry.counter "intern.misses"

let intern t x =
  match Hashtbl.find_opt t.tbl x with
  | Some i ->
    Telemetry.incr c_hits;
    i
  | None ->
    Telemetry.incr c_misses;
    let i = t.len in
    if i = Array.length t.rev then begin
      let cap = max 64 (2 * Array.length t.rev) in
      let arr = Array.make cap x in
      Array.blit t.rev 0 arr 0 t.len;
      t.rev <- arr
    end;
    t.rev.(i) <- x;
    t.len <- i + 1;
    Hashtbl.replace t.tbl x i;
    i

let get t i = t.rev.(i)

let length t = t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f i t.rev.(i)
  done

module Packed = struct
  (* Open-addressed (linear probing) int-key hash table mapping packed
     integer keys to dense ids.  Compared to [int t] above this avoids
     the per-entry box and bucket list of [Hashtbl]: probing walks a flat
     int array.  [ids.(slot) = -1] marks an empty slot, so any int —
     including negative ones — is a valid key.  Load is kept below 1/2
     by doubling. *)
  type t = {
    mutable keys : int array;
    mutable ids : int array;  (** -1 = empty slot *)
    mutable mask : int;  (** capacity - 1; capacity is a power of two *)
    mutable len : int;
  }

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := !cap * 2
    done;
    { keys = Array.make !cap 0; ids = Array.make !cap (-1); mask = !cap - 1; len = 0 }

  (* Fibonacci-style multiplicative mixing; the constant is
     0x2545F4914F6CDD1D truncated to OCaml's 63-bit int range. *)
  let slot_of mask k =
    let h = k * 0x2545F4914F6CDD1 in
    (h lxor (h lsr 29)) land mask

  let grow t =
    let cap' = 2 * (t.mask + 1) in
    let keys' = Array.make cap' 0 in
    let ids' = Array.make cap' (-1) in
    let mask' = cap' - 1 in
    for s = 0 to t.mask do
      let id = Array.unsafe_get t.ids s in
      if id >= 0 then begin
        let k = Array.unsafe_get t.keys s in
        let j = ref (slot_of mask' k) in
        while Array.unsafe_get ids' !j >= 0 do
          j := (!j + 1) land mask'
        done;
        Array.unsafe_set keys' !j k;
        Array.unsafe_set ids' !j id
      end
    done;
    t.keys <- keys';
    t.ids <- ids';
    t.mask <- mask'

  let intern t k =
    let j = ref (slot_of t.mask k) in
    let id = ref (Array.unsafe_get t.ids !j) in
    while !id >= 0 && Array.unsafe_get t.keys !j <> k do
      j := (!j + 1) land t.mask;
      id := Array.unsafe_get t.ids !j
    done;
    if !id >= 0 then begin
      Telemetry.incr c_hits;
      !id
    end
    else begin
      Telemetry.incr c_misses;
      let i = t.len in
      Array.unsafe_set t.keys !j k;
      Array.unsafe_set t.ids !j i;
      t.len <- i + 1;
      if 2 * t.len > t.mask then grow t;
      i
    end

  let length t = t.len
end

module Ctx = struct
  type store = {
    ids : Assume.assumption list t;
    union_memo : (int * int, int) Hashtbl.t;
  }

  let create () = { ids = create 64; union_memo = Hashtbl.create 64 }

  let intern s l = intern s.ids (List.sort_uniq compare l)

  let get s i = get s.ids i

  let c_union_hits = Telemetry.counter "intern.ctx_union_hits"
  let c_union_misses = Telemetry.counter "intern.ctx_union_misses"

  let union s a b =
    if a = b then a
    else
      (* union is symmetric: normalize the memo key *)
      let key = if a < b then (a, b) else (b, a) in
      match Hashtbl.find_opt s.union_memo key with
      | Some u ->
        Telemetry.incr c_union_hits;
        u
      | None ->
        Telemetry.incr c_union_misses;
        let u = intern s (get s a @ get s b) in
        Hashtbl.replace s.union_memo key u;
        u

  let length s = length s.ids
end

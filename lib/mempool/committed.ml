module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* The committed sequence numbers of one client: a contiguous run
   [lo, hi) plus a sparse bitmap of the seqs committed outside it, in
   32-seq words keyed by [seq asr 5]. Blocks commit each proposer's FIFO
   slice in order, so commits arrive nearly in seq order: the run absorbs
   the bitmap as gaps fill and the set stays the size of the reorder
   window. A seq that never commits (a tx some pool refused) pins [hi];
   above it a full word costs one table entry per 32 seqs. No sparse bit
   lies in [lo, hi), at [hi] or at [lo - 1]: the run absorbs those.

   The word being filled is cached in [key]/[cur] and written back to the
   table only when another word is written, so a burst of adds to one
   word hashes nothing. [cur] is the true value of word [key]; the
   table's entry for [key], if any, may be stale. An empty cached word has
   no entry. *)
type seqs = {
  client : int;
  mutable lo : int;
  mutable hi : int;
  mutable min_seq : int;
  mutable max_seq : int;
      (* extremes ever added: no sparse bit lies outside them *)
  sparse : int Int_tbl.t;
  mutable key : int;
  mutable cur : int;
}

let word_bits = 5
let bit s = 1 lsl (s land ((1 lsl word_bits) - 1))

let word c k =
  if k = c.key then c.cur
  else match Int_tbl.find c.sparse k with w -> w | exception Not_found -> 0

let seqs_mem c s =
  (c.lo <= s && s < c.hi)
  || s >= c.min_seq && s <= c.max_seq
     && word c (s asr word_bits) land bit s <> 0

(* A bitmap that empties also gives back the buckets a burst of
   out-of-order commits grew. *)
let set_word c k w =
  if k <> c.key then begin
    if c.cur <> 0 then Int_tbl.replace c.sparse c.key c.cur;
    c.key <- k
  end;
  c.cur <- w;
  if w = 0 then begin
    Int_tbl.remove c.sparse k;
    if Int_tbl.length c.sparse = 0 then Int_tbl.reset c.sparse
  end

(* Advance [hi] over the bitmap's consecutive set bits starting at it,
   one word at a time. *)
let rec absorb_up c =
  if c.hi <= c.max_seq then begin
    let k = c.hi asr word_bits in
    let w = word c k in
    let off = c.hi land ((1 lsl word_bits) - 1) in
    let rec ones x n = if x land 1 = 1 then ones (x lsr 1) (n + 1) else n in
    (* [hi] is exclusive, so the run ends at [max_int - 1]; a [max_int]
       bit stays in the bitmap. *)
    let run = Int.min (ones (w lsr off) 0) (max_int - c.hi) in
    if run > 0 then begin
      set_word c k (w land lnot (((1 lsl run) - 1) lsl off));
      c.hi <- c.hi + run;
      if c.hi land ((1 lsl word_bits) - 1) = 0 then absorb_up c
    end
  end

let rec absorb_down c =
  if c.lo > c.min_seq then begin
    let s = c.lo - 1 in
    let k = s asr word_bits in
    let w = word c k in
    if w land bit s <> 0 then begin
      set_word c k (w land lnot (bit s));
      c.lo <- s;
      absorb_down c
    end
  end

let extend c s =
  if s > c.max_seq then c.max_seq <- s;
  if s < c.min_seq then c.min_seq <- s

(* Whether [s] was new. *)
let seqs_add c s =
  if c.lo <= s && s < c.hi then false
  else if s = c.hi && s < max_int then begin
    extend c s;
    c.hi <- s + 1;
    absorb_up c;
    true
  end
  else if s = c.lo - 1 && c.lo > min_int then begin
    extend c s;
    c.lo <- s;
    absorb_down c;
    true
  end
  else
    let k = s asr word_bits in
    let w = word c k in
    if w land bit s <> 0 then false
    else begin
      extend c s;
      set_word c k (w lor bit s);
      true
    end

type t = {
  clients : seqs Int_tbl.t;
  mutable last : seqs option; (* the last client looked up *)
  mutable count : int;
}

let create () = { clients = Int_tbl.create 8; last = None; count = 0 }
let count t = t.count

(* [last] is [None] only while nothing has been added. *)
let seqs_of t client =
  match t.last with
  | Some c when c.client = client -> t.last
  | None -> None
  | Some _ ->
      let found = Int_tbl.find_opt t.clients client in
      if Option.is_some found then t.last <- found;
      found

let mem t ~client ~seq =
  match seqs_of t client with
  | Some c -> seqs_mem c seq
  | None -> false

let add t ~client ~seq =
  let fresh =
    match seqs_of t client with
    | Some c -> seqs_add c seq
    | None ->
        let s = seq in
        let c =
          {
            client;
            lo = s;
            hi = s;
            min_seq = s;
            max_seq = s;
            sparse = Int_tbl.create 16;
            key = 0;
            cur = 0;
          }
        in
        ignore (seqs_add c s : bool);
        Int_tbl.replace t.clients client c;
        t.last <- Some c;
        true
  in
  if fresh then t.count <- t.count + 1;
  fresh

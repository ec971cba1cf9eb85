open Bamboo_types

type conflict =
  | Recommitted of { replica : int; height : Ids.height; first : Ids.hash; second : Ids.hash }
  | Diverged of { i : int; j : int; height : Ids.height; hash_i : Ids.hash; hash_j : Ids.hash }
  | Tx_order of { i : int; j : int; upto : Ids.height }

type verdict = { heads : Ids.hash array; conflicts : conflict list }

(* An open height. [hashes.(r)] is [""] until replica [r] commits it; a
   plane without bodies stores [Body.empty]. While [clean], every commit
   matched the [first] committer's, so a new one is compared with it
   alone. *)
type pending = {
  hashes : Ids.hash array;
  bodies : Body.t array;
  first : int;
  mutable count : int;
  mutable clean : bool;
}

(* Replica ids map to dense slots; everything below is indexed by slot. *)
type t = {
  ids : int array; (* slot -> replica id *)
  slots : (int, int) Hashtbl.t; (* replica id -> slot *)
  heights : int array;
  heads : Ids.hash array;
  pending : (Ids.height, pending) Hashtbl.t;
  mutable floor : Ids.height; (* the newest dropped height *)
  mutable recommits : conflict list; (* newest first *)
  pairs : (int, conflict) Hashtbl.t; (* i * replicas + j -> lowest *)
}

let create ~replicas:ids =
  let n = Array.length ids in
  let slots = Hashtbl.create n in
  Array.iteri (fun slot id -> Hashtbl.replace slots id slot) ids;
  let heights = Array.make n 0 and heads = Array.make n Block.genesis_hash in
  let pending = Hashtbl.create 16 and pairs = Hashtbl.create 8 in
  { ids; slots; heights; heads; pending; floor = 0; recommits = []; pairs }

let replicas t = Array.length t.ids

(* Agreement on transactions is agreement on the (client, seq) order. *)
let same_txs a b =
  a == b
  || Body.length a = Body.length b
     && Seq.for_all
          (fun k -> Body.client a k = Body.client b k && Body.seq a k = Body.seq b k)
          (Seq.init (Body.length a) Fun.id)

(* Every replica commits its heights in order, so a pair's first
   divergence found is its lowest; it outranks a tx-order finding. *)
let flag t ~i ~j found =
  let key = (i * replicas t) + j in
  match (Hashtbl.find_opt t.pairs key, found) with
  | None, _ | Some (Tx_order _), Diverged _ -> Hashtbl.replace t.pairs key found
  | Some _, _ -> ()

let compare_pair t p ~height r j =
  let i = min r j and j = max r j in
  let hash_i = p.hashes.(i) and hash_j = p.hashes.(j) in
  if not (String.equal hash_i hash_j) then
    flag t ~i ~j (Diverged { i; j; height; hash_i; hash_j })
  else if not (same_txs p.bodies.(i) p.bodies.(j)) then
    flag t ~i ~j (Tx_order { i; j; upto = 0 })

(* A replica's first commit of a height, hence its new head. A height
   every replica committed cleanly needs no state: later commits extend
   the same chain, whose hashes pin it. *)
let add t p ~replica:r ~height hash body =
  t.heights.(r) <- height;
  t.heads.(r) <- hash;
  p.hashes.(r) <- hash;
  p.bodies.(r) <- body;
  p.count <- p.count + 1;
  if
    not
      (p.clean
      && String.equal hash p.hashes.(p.first)
      && same_txs body p.bodies.(p.first))
  then begin
    p.clean <- false;
    Array.iteri (fun j h -> if j <> r && h <> "" then compare_pair t p ~height r j) p.hashes
  end;
  if p.clean && p.count = replicas t then begin
    Hashtbl.remove t.pending height;
    t.floor <- max t.floor height
  end

let record t ~replica ~height hash body =
  let r = Hashtbl.find t.slots replica in
  match Hashtbl.find_opt t.pending height with
  | Some p when p.hashes.(r) <> "" ->
      let first = p.hashes.(r) in
      if not (String.equal first hash) then
        t.recommits <- Recommitted { replica; height; first; second = hash } :: t.recommits
  | Some p -> add t p ~replica:r ~height hash body
  (* A re-commit of a dropped height (a restarted replica catching up):
     if it is on another chain, so is the replica's next new height. *)
  | None when height <= t.floor -> ()
  | None ->
      let n = replicas t in
      let p =
        { hashes = Array.make n ""; bodies = Array.make n Body.empty; first = r; count = 0;
          clean = true }
      in
      Hashtbl.add t.pending height p;
      add t p ~replica:r ~height hash body

let commit t ~replica (b : Block.t) = record t ~replica ~height:b.height b.hash b.body
let commit_hash t ~replica ~height hash = record t ~replica ~height hash Body.empty

let verdict t =
  let pair (_, c) =
    match c with
    | Diverged c -> Diverged { c with i = t.ids.(c.i); j = t.ids.(c.j) }
    | Tx_order { i; j; _ } ->
        Tx_order { i = t.ids.(i); j = t.ids.(j); upto = min t.heights.(i) t.heights.(j) }
    | c -> c
  in
  let pairs = Bamboo_util.Tbl.sorted_bindings ~compare:Int.compare t.pairs in
  { heads = Array.copy t.heads; conflicts = List.rev_append t.recommits (List.map pair pairs) }

let open_heights t = Hashtbl.length t.pending

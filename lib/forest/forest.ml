open Bamboo_types
module Hash_tbl = Ids.Hash_tbl

(* Each block's [Some b] cell is built once, when the block is added, and
   shared by every table that holds it, so [find], [mem] and
   [committed_at] return without allocating. *)
type t = {
  blocks : Block.t option Hash_tbl.t; (* uncommitted vertices *)
  children : Ids.hash list Hash_tbl.t;
      (* by parent; committed blocks other than the head have no entry *)
  mutable head : Block.t; (* last committed block *)
  committed_by_hash : Block.t option Hash_tbl.t;
  mutable committed_by_height : Block.t option array; (* index = height *)
}

type add_result =
  | Added
  | Duplicate
  | Missing_parent
  | Below_prune_horizon
  | Bad_height

type commit_error =
  | Unknown_block
  | Conflicts_with_committed
  | Already_committed

let create () =
  let t =
    {
      blocks = Hash_tbl.create 64;
      children = Hash_tbl.create 64;
      head = Block.genesis;
      committed_by_hash = Hash_tbl.create 64;
      committed_by_height = Array.make 64 None;
    }
  in
  let cell = Some Block.genesis in
  Hash_tbl.add t.committed_by_hash Block.genesis.hash cell;
  t.committed_by_height.(0) <- cell;
  t

(* The stored cell, or [None]; [Hash_tbl.find_opt] would allocate a fresh
   option on every hit. *)
let cell tbl h = match Hash_tbl.find tbl h with c -> c | exception Not_found -> None

let last_committed t = t.head

let committed_height t = t.head.Block.height

(* Heights from genesis to the head are contiguous (see [add]). *)
let committed_count t = t.head.Block.height + 1

let committed_at t h =
  if h >= 0 && h < Array.length t.committed_by_height then
    Array.unsafe_get t.committed_by_height h
  else None

let find t h =
  match cell t.blocks h with
  | Some _ as c -> c
  | None -> cell t.committed_by_hash h

let mem t h = Hash_tbl.mem t.blocks h || Hash_tbl.mem t.committed_by_hash h

let parent t (b : Block.t) = find t b.parent

let children t h =
  match Hash_tbl.find_opt t.children h with
  | None -> []
  | Some hs -> List.filter_map (cell t.blocks) hs

let size t = Hash_tbl.length t.blocks

let add_child t ~parent ~child =
  let existing =
    match Hash_tbl.find_opt t.children parent with None -> [] | Some l -> l
  in
  Hash_tbl.replace t.children parent (child :: existing)

let add t (b : Block.t) =
  if mem t b.hash then Duplicate
  else begin
    let head = last_committed t in
    let insert (p : Block.t) =
      (* Heights along parent links are contiguous, which is what lets
         [committed_by_height] be an array. *)
      if b.height <> p.height + 1 then Bad_height
      else begin
        Hash_tbl.add t.blocks b.hash (Some b);
        add_child t ~parent:b.parent ~child:b.hash;
        Added
      end
    in
    (* A valid extension must be strictly above the committed height and,
       if its parent is committed, that parent must be the committed
       head; anything else can never be committed and is dropped. *)
    if b.height <= head.height then Below_prune_horizon
    else
      match cell t.committed_by_hash b.parent with
      | Some p -> if String.equal p.hash head.hash then insert p else Below_prune_horizon
      | None -> (
          match cell t.blocks b.parent with
          | Some p -> insert p
          | None -> Missing_parent)
  end

let extends t ~descendant ~ancestor =
  let rec walk h =
    if String.equal h ancestor then true
    else
      match find t h with
      | None -> false
      | Some b ->
          if b.height = 0 then false (* genesis reached without a match *)
          else walk b.parent
  in
  walk descendant

let set_committed_height t (b : Block.t) c =
  let len = Array.length t.committed_by_height in
  if b.height >= len then begin
    let grown = Array.make (2 * len) None in
    Array.blit t.committed_by_height 0 grown 0 len;
    t.committed_by_height <- grown
  end;
  t.committed_by_height.(b.height) <- c

let commit t target =
  match cell t.blocks target with
  | None ->
      if Hash_tbl.mem t.committed_by_hash target then Error Already_committed
      else Error Unknown_block
  | Some block ->
      let head = last_committed t in
      (* Collect the uncommitted path from [target] down to the committed
         head. *)
      let rec path acc (b : Block.t) =
        if String.equal b.parent head.Block.hash then Some (b :: acc)
        else
          match cell t.blocks b.parent with
          | Some p -> path (b :: acc) p
          | None -> None
      in
      (match path [] block with
      | None -> Error Conflicts_with_committed
      | Some newly ->
          (* Move the path into the committed chain. Only the new head
             keeps its children entry: every other committed block's
             children are committed or pruned below. *)
          Hash_tbl.remove t.children head.hash;
          List.iter
            (fun (b : Block.t) ->
              let c = cell t.blocks b.hash in
              Hash_tbl.remove t.blocks b.hash;
              Hash_tbl.add t.committed_by_hash b.hash c;
              set_committed_height t b c;
              if not (String.equal b.hash target) then
                Hash_tbl.remove t.children b.hash;
              t.head <- b)
            newly;
          let new_head = t.head in
          (* Prune: every surviving vertex must descend from the new head.
             Walk parents; reaching any other committed block (or a removed
             one) means the branch is dead. *)
          let descends_from_head (b : Block.t) =
            let rec walk h =
              if String.equal h new_head.Block.hash then true
              else
                match cell t.blocks h with
                | Some b -> walk b.Block.parent
                | None -> false
            in
            walk b.Block.hash
          in
          (* Only the dead blocks (usually none) are sorted, by height
             then hash: the pruned-block list reaches the Fork_prune trace
             events, so equal-height ties must not fall back to bucket
             order. *)
          let by_height_then_hash (a : Block.t) (b : Block.t) =
            let c = Int.compare a.height b.height in
            if c <> 0 then c else String.compare a.hash b.hash
          in
          (* The children links from the new head reach exactly the
             surviving vertices, once each; when they count the whole
             table, the scan for dead ones can be skipped. *)
          let rec descendants h =
            match Hash_tbl.find_opt t.children h with
            | None -> 0
            | Some hs -> List.fold_left (fun n c -> n + 1 + descendants c) 0 hs
          in
          let dead =
            if descendants new_head.Block.hash = Hash_tbl.length t.blocks then []
            else
              Hash_tbl.sorted_filter_map ~compare:by_height_then_hash
                (fun _ c ->
                  match c with
                  | Some b when not (descends_from_head b) -> Some b
                  | Some _ | None -> None)
                t.blocks
          in
          List.iter
            (fun (b : Block.t) ->
              Hash_tbl.remove t.blocks b.hash;
              Hash_tbl.remove t.children b.hash)
            dead;
          Ok (newly, dead))

(* Callers receive the uncommitted vertices in block-hash order so that
   anything they accumulate (e.g. byzantine equivocation targets) is
   independent of bucket layout. *)
let uncommitted_by_hash t =
  Hash_tbl.sorted_filter_map
    ~compare:(fun (a : Block.t) (b : Block.t) -> String.compare a.hash b.hash)
    (fun _ c -> c)
    t.blocks

let fold_uncommitted t f init = List.fold_left f init (uncommitted_by_hash t)

let tip_candidates t =
  let leaves =
    List.filter (fun (b : Block.t) -> children t b.hash = []) (uncommitted_by_hash t)
  in
  let leaves = if leaves = [] then [ t.head ] else leaves in
  (* Stable sort on top of the hash-ordered snapshot: equal-height tips
     tie-break on hash, deterministically. *)
  List.stable_sort
    (fun (a : Block.t) (b : Block.t) -> Int.compare b.height a.height)
    leaves

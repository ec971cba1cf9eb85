open Bamboo_types
module Tbl = Bamboo_util.Tbl

type t = {
  blocks : (Ids.hash, Block.t) Hashtbl.t; (* uncommitted vertices *)
  children : (Ids.hash, Ids.hash list) Hashtbl.t;
  mutable head : Block.t; (* last committed block *)
  mutable committed_count : int; (* committed blocks, genesis included *)
  mutable committed_by_hash : (Ids.hash, Block.t) Hashtbl.t;
  mutable committed_by_height : (Ids.height, Block.t) Hashtbl.t;
}

type add_result = Added | Duplicate | Missing_parent | Below_prune_horizon

type commit_error =
  | Unknown_block
  | Conflicts_with_committed
  | Already_committed

let create () =
  let t =
    {
      blocks = Hashtbl.create 64;
      children = Hashtbl.create 64;
      head = Block.genesis;
      committed_count = 1;
      committed_by_hash = Hashtbl.create 64;
      committed_by_height = Hashtbl.create 64;
    }
  in
  Hashtbl.add t.committed_by_hash Block.genesis.hash Block.genesis;
  Hashtbl.add t.committed_by_height 0 Block.genesis;
  t

let last_committed t = t.head

let committed_height t = t.head.Block.height

let committed_count t = t.committed_count

let committed_at t h = Hashtbl.find_opt t.committed_by_height h

let find t h =
  match Hashtbl.find_opt t.blocks h with
  | Some b -> Some b
  | None -> Hashtbl.find_opt t.committed_by_hash h

let mem t h = Hashtbl.mem t.blocks h || Hashtbl.mem t.committed_by_hash h

let parent t (b : Block.t) = find t b.parent

let children t h =
  match Hashtbl.find_opt t.children h with
  | None -> []
  | Some hs -> List.filter_map (Hashtbl.find_opt t.blocks) hs

let size t = Hashtbl.length t.blocks

let add_child t ~parent ~child =
  let existing =
    match Hashtbl.find_opt t.children parent with None -> [] | Some l -> l
  in
  Hashtbl.replace t.children parent (child :: existing)

let add t (b : Block.t) =
  if mem t b.hash then Duplicate
  else begin
    let head = last_committed t in
    (* A valid extension must be strictly above the committed height and,
       if its parent is committed, that parent must be the committed
       head; anything else can never be committed and is dropped. *)
    if b.height <= head.height then Below_prune_horizon
    else
      match Hashtbl.find_opt t.committed_by_hash b.parent with
      | Some p ->
          if String.equal p.hash head.hash then begin
            Hashtbl.add t.blocks b.hash b;
            add_child t ~parent:b.parent ~child:b.hash;
            Added
          end
          else Below_prune_horizon
      | None ->
          if Hashtbl.mem t.blocks b.parent then begin
            Hashtbl.add t.blocks b.hash b;
            add_child t ~parent:b.parent ~child:b.hash;
            Added
          end
          else Missing_parent
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

let commit t target =
  match Hashtbl.find_opt t.blocks target with
  | None ->
      if Hashtbl.mem t.committed_by_hash target then Error Already_committed
      else Error Unknown_block
  | Some block ->
      let head = last_committed t in
      (* Collect the uncommitted path from [target] down to the committed
         head. *)
      let rec path acc (b : Block.t) =
        if String.equal b.parent head.Block.hash then Some (b :: acc)
        else
          match Hashtbl.find_opt t.blocks b.parent with
          | Some p -> path (b :: acc) p
          | None -> None
      in
      (match path [] block with
      | None -> Error Conflicts_with_committed
      | Some newly ->
          (* Move the path into the committed chain. *)
          List.iter
            (fun (b : Block.t) ->
              Hashtbl.remove t.blocks b.hash;
              Hashtbl.add t.committed_by_hash b.hash b;
              Hashtbl.add t.committed_by_height b.height b;
              t.head <- b;
              t.committed_count <- t.committed_count + 1)
            newly;
          let new_head = t.head in
          (* Prune: every surviving vertex must descend from the new head.
             Walk parents; reaching any other committed block (or a removed
             one) means the branch is dead. *)
          let descends_from_head (b : Block.t) =
            let rec walk h =
              if String.equal h new_head.Block.hash then true
              else
                match Hashtbl.find_opt t.blocks h with
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
          let dead =
            Tbl.sorted_filter_map ~compare:by_height_then_hash
              (fun _ b -> if descends_from_head b then None else Some b)
              t.blocks
          in
          List.iter
            (fun (b : Block.t) ->
              Hashtbl.remove t.blocks b.hash;
              Hashtbl.remove t.children b.hash)
            dead;
          Ok (newly, dead))

(* Callers receive the uncommitted vertices in block-hash order so that
   anything they accumulate (e.g. byzantine equivocation targets) is
   independent of bucket layout. *)
let fold_uncommitted t f init =
  List.fold_left
    (fun acc (_, b) -> f acc b)
    init
    (Tbl.sorted_bindings ~compare:String.compare t.blocks)

let tip_candidates t =
  let leaves =
    List.filter_map
      (fun (h, b) -> if children t h = [] then Some b else None)
      (Tbl.sorted_bindings ~compare:String.compare t.blocks)
  in
  let leaves = if leaves = [] then [ t.head ] else leaves in
  (* Stable sort on top of the hash-ordered snapshot: equal-height tips
     tie-break on hash, deterministically. *)
  List.stable_sort
    (fun (a : Block.t) (b : Block.t) -> Int.compare b.height a.height)
    leaves

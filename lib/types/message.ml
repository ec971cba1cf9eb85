type t =
  | Proposal of { block : Block.t; tc : Tcert.t option }
  | Vote of Vote.t
  | Timeout of Timeout_msg.t
  | Request_block of { hash : Ids.hash; requester : Ids.replica }

let view = function
  | Proposal { block; _ } -> block.Block.view
  | Vote v -> v.Vote.view
  | Timeout t -> t.Timeout_msg.view
  | Request_block _ -> 0

let wire_size = function
  | Proposal { block; tc } ->
      let tc_size = match tc with None -> 1 | Some tc -> 1 + Tcert.wire_size tc in
      Block.wire_size block + tc_size
  | Vote _ -> Vote.wire_size
  | Timeout t -> Timeout_msg.wire_size t
  | Request_block _ -> 48

let proposal_key hash = "p|" ^ hash

let vote_key ~block ~voter = String.concat "|" [ "v"; block; string_of_int voter ]

let timeout_key ~view ~sender =
  String.concat "|" [ "t"; string_of_int view; string_of_int sender ]

let key = function
  | Proposal { block; _ } -> proposal_key block.Block.hash
  | Vote v -> vote_key ~block:v.Vote.block ~voter:v.Vote.voter
  | Timeout t -> timeout_key ~view:t.Timeout_msg.view ~sender:t.Timeout_msg.sender
  | Request_block { hash; requester } ->
      String.concat "|" [ "r"; hash; string_of_int requester ]

let type_label = function
  | Proposal _ -> "proposal"
  | Vote _ -> "vote"
  | Timeout _ -> "timeout"
  | Request_block _ -> "request"

let pp fmt = function
  | Proposal { block; tc } ->
      Format.fprintf fmt "Proposal(%a%s)" Block.pp block
        (match tc with None -> "" | Some _ -> ",+TC")
  | Vote v -> Format.fprintf fmt "Vote(%a)" Vote.pp v
  | Timeout t -> Format.fprintf fmt "Timeout(%a)" Timeout_msg.pp t
  | Request_block { hash; requester } ->
      Format.fprintf fmt "Request(%a by %d)" Ids.pp_hash hash requester

type command =
  | Put of { key : string; value : string }
  | Get of string
  | Delete of string

type outcome = Stored | Found of string | Missing

type t = (string, string) Hashtbl.t

let create () : t = Hashtbl.create 256

(* Length-prefixed textual encoding, unambiguous for arbitrary bytes:
   "P<klen>:<key><value>", "G<klen>:<key>", "D<klen>:<key>". *)
let encode_command = function
  | Put { key; value } -> Printf.sprintf "P%d:%s%s" (String.length key) key value
  | Get key -> Printf.sprintf "G%d:%s" (String.length key) key
  | Delete key -> Printf.sprintf "D%d:%s" (String.length key) key

let decode_command s =
  if String.length s < 2 then Error "command too short"
  else
    match String.index_opt s ':' with
    | None -> Error "missing length separator"
    | Some colon -> (
        match int_of_string_opt (String.sub s 1 (colon - 1)) with
        | None -> Error "bad key length"
        | Some klen ->
            if klen < 0 || colon + 1 + klen > String.length s then
              Error "key length out of range"
            else
              let key = String.sub s (colon + 1) klen in
              let rest_pos = colon + 1 + klen in
              let rest = String.sub s rest_pos (String.length s - rest_pos) in
              (match s.[0] with
              | 'P' -> Ok (Put { key; value = rest })
              | 'G' -> if rest = "" then Ok (Get key) else Error "trailing bytes"
              | 'D' ->
                  if rest = "" then Ok (Delete key) else Error "trailing bytes"
              | c -> Error (Printf.sprintf "unknown command '%c'" c)))

let apply t = function
  | Put { key; value } ->
      Hashtbl.replace t key value;
      Stored
  | Get key -> (
      match Hashtbl.find_opt t key with
      | Some v -> Found v
      | None -> Missing)
  | Delete key ->
      if Hashtbl.mem t key then begin
        Hashtbl.remove t key;
        Stored
      end
      else Missing

let apply_tx t data =
  if data = "" then None
  else
    match decode_command data with
    | Ok cmd -> Some (apply t cmd)
    | Error _ -> None

let size = Hashtbl.length

let get t key = Hashtbl.find_opt t key

let state_hash t =
  let entries = Bamboo_util.Tbl.sorted_bindings ~compare:String.compare t in
  let ctx = Bamboo_crypto.Sha256.init () in
  List.iter
    (fun (k, v) ->
      Bamboo_crypto.Sha256.feed ctx (Printf.sprintf "%d:%s%d:%s" (String.length k) k (String.length v) v))
    entries;
  Bamboo_crypto.Sha256.finalize ctx

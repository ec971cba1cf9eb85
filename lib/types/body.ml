(* Columns of one length, except two that are [||] when they would only
   repeat a constant: [lens] when every payload length is [len], [data]
   when every payload is empty. *)
type t = {
  clients : int array;
  seqs : int array;
  len : int; (* every payload length, when [lens] is [||] *)
  lens : int array;
  data : string array;
}

let empty = { clients = [||]; seqs = [||]; len = 0; lens = [||]; data = [||] }
let length b = Array.length b.clients
let client b i = b.clients.(i)
let seq b i = b.seqs.(i)

let payload_len b i =
  if Array.length b.lens > 0 then b.lens.(i)
  else if i >= 0 && i < length b then b.len
  else invalid_arg "index out of bounds"

let data b i =
  if Array.length b.data > 0 then b.data.(i)
  else if i >= 0 && i < length b then ""
  else invalid_arg "index out of bounds"

let tx b i =
  {
    Tx.id = { Tx.client = client b i; seq = seq b i };
    payload_len = payload_len b i;
    data = data b i;
  }

let to_list b = List.init (length b) (tx b)

(* [Tx.wire_size] of each: a 16-byte id header plus the payload. *)
let wire_size b =
  if Array.length b.lens > 0 then
    Array.fold_left (fun acc len -> acc + 16 + len) 0 b.lens
  else length b * (16 + b.len)

module Builder = struct
  type body = t

  type t = {
    clients : int array;
    seqs : int array;
    mutable len : int; (* the first payload length *)
    mutable lens : int array; (* [||] until a payload length differs *)
    mutable data : string array; (* [||] until a payload is non-empty *)
    mutable n : int;
  }

  let create cap =
    if cap < 0 then invalid_arg "Body.Builder.create: negative capacity";
    {
      clients = Array.make cap 0;
      seqs = Array.make cap 0;
      len = 0;
      lens = [||];
      data = [||];
      n = 0;
    }

  let length t = t.n

  let add t ~client ~seq ~payload_len ~data =
    let i = t.n in
    if i = Array.length t.clients then invalid_arg "Body.Builder.add: full";
    t.clients.(i) <- client;
    t.seqs.(i) <- seq;
    if Array.length t.lens > 0 then t.lens.(i) <- payload_len
    else if i = 0 then t.len <- payload_len
    else if payload_len <> t.len then begin
      (* The first length that differs: back-fill the ones before it. *)
      t.lens <- Array.make (Array.length t.clients) t.len;
      t.lens.(i) <- payload_len
    end;
    if String.length data > 0 && Array.length t.data = 0 then
      t.data <- Array.make (Array.length t.clients) "";
    if Array.length t.data > 0 then t.data.(i) <- data;
    t.n <- i + 1

  let add_tx t (tx : Tx.t) =
    add t ~client:tx.id.client ~seq:tx.id.seq ~payload_len:tx.payload_len
      ~data:tx.data

  let finish t : body =
    let n = t.n in
    if n = 0 then empty
    else if n = Array.length t.clients then
      {
        clients = t.clients;
        seqs = t.seqs;
        len = t.len;
        lens = t.lens;
        data = t.data;
      }
    else
      let cut a = if Array.length a = 0 then a else Array.sub a 0 n in
      {
        clients = cut t.clients;
        seqs = cut t.seqs;
        len = t.len;
        lens = cut t.lens;
        data = cut t.data;
      }
end

let of_list txs =
  let b = Builder.create (List.length txs) in
  List.iter (Builder.add_tx b) txs;
  Builder.finish b

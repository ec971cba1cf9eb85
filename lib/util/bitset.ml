type t = Bytes.t

let create ~n = Bytes.make ((n + 7) / 8) '\000'

let mem b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add b i =
  let byte = Char.code (Bytes.unsafe_get b (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if byte land bit <> 0 then false
  else begin
    Bytes.unsafe_set b (i lsr 3) (Char.unsafe_chr (byte lor bit));
    true
  end

let iter f b =
  for i = 0 to (8 * Bytes.length b) - 1 do
    if mem b i then f i
  done

(* Byte-mutation fuzzing shared by the parser-contract properties.

   [mutate g text] applies 1-3 byte edits (overwrite, insert or delete);
   half of the written bytes come from [interesting] (default: the bytes
   that turn one well-formed number or line into another), the rest are
   uniform. *)

module Prng = Sa_util.Prng

let mutate ?(interesting = "0123456789- \n") g text =
  let byte () =
    if Prng.bool g then interesting.[Prng.int g (String.length interesting)]
    else Char.chr (Prng.int g 256)
  in
  let b = Buffer.create (String.length text + 3) in
  Buffer.add_string b text;
  for _ = 1 to 1 + Prng.int g 3 do
    let s = Buffer.contents b in
    let len = String.length s in
    let i = Prng.int g (max 1 len) in
    Buffer.clear b;
    match Prng.int g 3 with
    | 0 when len > 0 ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_char b (byte ());
        Buffer.add_string b (String.sub s (i + 1) (len - i - 1))
    | 1 ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_char b (byte ());
        Buffer.add_string b (String.sub s i (len - i))
    | _ when len > 0 ->
        Buffer.add_string b (String.sub s 0 i);
        Buffer.add_string b (String.sub s (i + 1) (len - i - 1))
    | _ -> Buffer.add_string b s
  done;
  Buffer.contents b

type t =
  | Input of string
  | Const of bool
  | Buf of int
  | Not of int
  | And2 of int * int
  | Or2 of int * int
  | Xor2 of int * int
  | Nand2 of int * int
  | Nor2 of int * int
  | Xnor2 of int * int

let fanin = function
  | Input _ | Const _ -> []
  | Buf a | Not a -> [ a ]
  | And2 (a, b) | Or2 (a, b) | Xor2 (a, b) | Nand2 (a, b) | Nor2 (a, b)
  | Xnor2 (a, b) ->
    [ a; b ]

let is_combinational = function
  | Input _ | Const _ -> false
  | Buf _ | Not _ | And2 _ | Or2 _ | Xor2 _ | Nand2 _ | Nor2 _ | Xnor2 _ ->
    true

let name = function
  | Input _ -> "input"
  | Const _ -> "const"
  | Buf _ -> "buf"
  | Not _ -> "not"
  | And2 _ -> "and"
  | Or2 _ -> "or"
  | Xor2 _ -> "xor"
  | Nand2 _ -> "nand"
  | Nor2 _ -> "nor"
  | Xnor2 _ -> "xnor"

let eval g look =
  match g with
  | Input s -> invalid_arg ("Gate.eval: unresolved input " ^ s)
  | Const b -> b
  | Buf a -> look a
  | Not a -> not (look a)
  | And2 (a, b) -> look a && look b
  | Or2 (a, b) -> look a || look b
  | Xor2 (a, b) -> look a <> look b
  | Nand2 (a, b) -> not (look a && look b)
  | Nor2 (a, b) -> not (look a || look b)
  | Xnor2 (a, b) -> look a = look b

let pp ppf g =
  match g with
  | Input s -> Format.fprintf ppf "input(%s)" s
  | Const b -> Format.fprintf ppf "const(%b)" b
  | Buf a -> Format.fprintf ppf "buf(%d)" a
  | Not a -> Format.fprintf ppf "not(%d)" a
  | And2 (a, b) -> Format.fprintf ppf "and(%d,%d)" a b
  | Or2 (a, b) -> Format.fprintf ppf "or(%d,%d)" a b
  | Xor2 (a, b) -> Format.fprintf ppf "xor(%d,%d)" a b
  | Nand2 (a, b) -> Format.fprintf ppf "nand(%d,%d)" a b
  | Nor2 (a, b) -> Format.fprintf ppf "nor(%d,%d)" a b
  | Xnor2 (a, b) -> Format.fprintf ppf "xnor(%d,%d)" a b

type t = Int of int | Real of float | Str of string | Bool of bool | Ts of float

type ty = T_int | T_real | T_str | T_bool | T_ts

let type_of = function
  | Int _ -> T_int
  | Real _ -> T_real
  | Str _ -> T_str
  | Bool _ -> T_bool
  | Ts _ -> T_ts

let ty_to_string = function
  | T_int -> "integer"
  | T_real -> "real"
  | T_str -> "varchar"
  | T_bool -> "boolean"
  | T_ts -> "timestamp"

let to_string = function
  | Int i -> string_of_int i
  | Real f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> if b then "true" else "false"
  | Ts ts -> Printf.sprintf "%.6f" ts

let pp fmt v = Format.pp_print_string fmt (to_string v)

let as_float = function
  | Int i -> Some (float_of_int i)
  | Real f -> Some f
  | Ts ts -> Some ts
  | Str _ | Bool _ -> None

(* numeric payload without the [as_float] option box: only call on
   Int/Real/Ts *)
let num_payload = function
  | Int i -> float_of_int i
  | Real f -> f
  | Ts ts -> ts
  | Str _ | Bool _ -> assert false

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Real _ | Ts _), (Int _ | Real _ | Ts _) -> num_payload a = num_payload b
  | (Int _ | Real _ | Str _ | Bool _ | Ts _), _ -> false

let compare_values a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Int _ | Real _ | Ts _), (Int _ | Real _ | Ts _) ->
      Float.compare (num_payload a) (num_payload b)
  | _ ->
      invalid_arg
        (Printf.sprintf "cannot compare %s with %s"
           (ty_to_string (type_of a))
           (ty_to_string (type_of b)))

type schema = (string * ty) list

let schema_arity = List.length

let type_accepts declared actual =
  match declared, actual with
  | T_real, T_int -> true (* integer literals flow into real columns *)
  | T_ts, (T_int | T_real) -> true
  | d, a -> d = a

let validate schema row =
  let arity = List.length schema in
  if Array.length row <> arity then
    Error
      (Printf.sprintf "arity mismatch: schema has %d columns, row has %d" arity
         (Array.length row))
  else
    let rec check i = function
      | [] -> Ok ()
      | (name, declared) :: cols ->
          let v = Array.unsafe_get row i in
          if type_accepts declared (type_of v) then check (i + 1) cols
          else
            Error
              (Printf.sprintf "column %s expects %s, got %s" name (ty_to_string declared)
                 (ty_to_string (type_of v)))
    in
    check 0 schema

type tuple = { ts : float; values : t array }

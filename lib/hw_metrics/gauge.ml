type t = {
  name : string;
  help : string;
  labels : (string * string) list;
  mutable v : float;
  mutable writes : int;
}

let create ?(labels = []) ~name ~help () = { name; help; labels; v = 0.; writes = 0 }

let set t v =
  t.v <- v;
  t.writes <- t.writes + 1

let add t d =
  t.v <- t.v +. d;
  t.writes <- t.writes + 1

let value t = t.v
let writes t = t.writes
let name t = t.name
let help t = t.help
let labels t = t.labels

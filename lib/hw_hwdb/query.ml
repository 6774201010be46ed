type result_set = { columns : string list; rows : Value.t list list }

let result_to_strings rs = rs.columns :: List.map (List.map Value.to_string) rs.rows

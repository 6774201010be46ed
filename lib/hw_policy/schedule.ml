type t = { days : Hw_time.weekday list; start_tod : float; end_tod : float }

let always = { days = Hw_time.all_weekdays; start_tod = 0.; end_tod = Hw_time.seconds_per_day }

let hour h = float_of_int h *. 3600.

let weekdays ?(start_hour = 0) ?(end_hour = 24) () =
  {
    days = [ Hw_time.Mon; Hw_time.Tue; Hw_time.Wed; Hw_time.Thu; Hw_time.Fri ];
    start_tod = hour start_hour;
    end_tod = hour end_hour;
  }

let weekend ?(start_hour = 0) ?(end_hour = 24) () =
  { days = [ Hw_time.Sat; Hw_time.Sun ]; start_tod = hour start_hour; end_tod = hour end_hour }

let make ~days ~start_tod ~end_tod = { days; start_tod; end_tod }

let prev_day = function
  | Hw_time.Mon -> Hw_time.Sun
  | Hw_time.Tue -> Hw_time.Mon
  | Hw_time.Wed -> Hw_time.Tue
  | Hw_time.Thu -> Hw_time.Wed
  | Hw_time.Fri -> Hw_time.Thu
  | Hw_time.Sat -> Hw_time.Fri
  | Hw_time.Sun -> Hw_time.Sat

let active_at t ts =
  let day = Hw_time.weekday_of ts in
  let tod = Hw_time.time_of_day ts in
  if t.start_tod < t.end_tod then List.mem day t.days && tod >= t.start_tod && tod < t.end_tod
  else if t.start_tod = t.end_tod then List.mem day t.days (* degenerate: whole day *)
  else
    (* wrapping window: [start, midnight) on a listed day, or
       [midnight, end) on the day after a listed day *)
    (List.mem day t.days && tod >= t.start_tod)
    || (List.mem (prev_day day) t.days && tod < t.end_tod)

let parse_days s =
  match String.lowercase_ascii (String.trim s) with
  | "weekdays" | "schooldays" ->
      Ok [ Hw_time.Mon; Hw_time.Tue; Hw_time.Wed; Hw_time.Thu; Hw_time.Fri ]
  | "weekend" -> Ok [ Hw_time.Sat; Hw_time.Sun ]
  | "all" | "everyday" | "daily" -> Ok Hw_time.all_weekdays
  | text ->
      let words = String.split_on_char ' ' text |> List.filter (fun w -> w <> "") in
      let days = List.filter_map Hw_time.weekday_of_string words in
      if words <> [] && List.length days = List.length words then Ok days
      else Error (Printf.sprintf "unrecognised day list %S" s)

let parse_tod s =
  match String.split_on_char ':' (String.trim s) with
  | [ h; m ] -> (
      match int_of_string_opt h, int_of_string_opt m with
      | Some h, Some m when h >= 0 && h <= 24 && m >= 0 && m <= 59 ->
          Ok (float_of_int ((h * 3600) + (m * 60)))
      | _ -> Error (Printf.sprintf "bad time %S" s))
  | _ -> Error (Printf.sprintf "bad time %S (expected HH:MM)" s)

let of_strings ~days ~window =
  match parse_days days with
  | Error _ as e -> e
  | Ok day_list -> (
      match String.lowercase_ascii (String.trim window) with
      | "always" | "" ->
          Ok { days = day_list; start_tod = 0.; end_tod = Hw_time.seconds_per_day }
      | w -> (
          match String.split_on_char '-' w with
          | [ a; b ] -> (
              match parse_tod a, parse_tod b with
              | Ok start_tod, Ok end_tod -> Ok { days = day_list; start_tod; end_tod }
              | (Error _ as e), _ | _, (Error _ as e) -> e)
          | _ -> Error (Printf.sprintf "bad window %S (expected HH:MM-HH:MM)" window)))

(* what [Printf.sprintf "%02d"] writes, without Printf: inserting a USB
   key renders its rules' windows, and no other hot path uses Printf *)
let two_digits n = if n >= 0 && n < 10 then "0" ^ string_of_int n else string_of_int n

let tod_to_string tod =
  let h = int_of_float (tod /. 3600.) in
  let m = int_of_float (Float.rem tod 3600. /. 60.) in
  two_digits h ^ ":" ^ two_digits m

let to_strings t =
  let days =
    String.concat " " (List.map (fun d -> String.lowercase_ascii (Hw_time.weekday_to_string d)) t.days)
  in
  let window =
    if t.start_tod = 0. && t.end_tod = Hw_time.seconds_per_day then "always"
    else tod_to_string t.start_tod ^ "-" ^ tod_to_string t.end_tod
  in
  (days, window)

let pp fmt t =
  let days, window = to_strings t in
  Format.fprintf fmt "%s %s" days window

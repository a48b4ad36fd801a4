type cell = { mutable total : int; mutable updates : int }

type t = (string, cell) Hashtbl.t

let create () = Hashtbl.create 16

let add t name us =
  match Hashtbl.find_opt t name with
  | Some c ->
    c.total <- c.total + us;
    c.updates <- c.updates + 1
  | None -> Hashtbl.add t name { total = us; updates = 1 }

let total t name =
  match Hashtbl.find_opt t name with Some c -> c.total | None -> 0

let grand_total t = Hashtbl.fold (fun _ c acc -> acc + c.total) t 0

let dump t =
  Hashtbl.fold (fun name c acc -> (name, c.total, c.updates) :: acc) t []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

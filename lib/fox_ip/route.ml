type entry = {
  network : Ipv4_addr.t;
  prefix : int;
  gateway : Ipv4_addr.t option;
}

(* Kept sorted most-specific (longest prefix) first, so lookup is the first
   match.  Tables are tiny (a handful of routes) so a list is right. *)
type t = entry list

let sort = List.stable_sort (fun a b -> Int.compare b.prefix a.prefix)

let create entries =
  List.iter
    (fun e ->
      if e.prefix < 0 || e.prefix > 32 then invalid_arg "Route.create: prefix")
    entries;
  sort entries

let local ~network ~prefix = create [ { network; prefix; gateway = None } ]

let next_hop t dst =
  let matches e = Ipv4_addr.in_subnet dst ~network:e.network ~prefix:e.prefix in
  match List.find_opt matches t with
  | None -> None
  | Some { gateway = Some gw; _ } -> Some gw
  | Some { gateway = None; _ } -> Some dst

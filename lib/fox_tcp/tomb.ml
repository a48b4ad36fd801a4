(* The TIME-WAIT tombstone table; see the interface. *)

type 'h tomb = 'h Tcb.time_wait

type 'h t = {
  equal : 'h -> 'h -> bool;
  hash : 'h -> int;
  mutable heads : 'h tomb option array;
  mutable count : int;
  mutable arrivals : int;  (** tombstones ever numbered *)
}

let create ~equal ~hash () =
  { equal; hash; heads = [||]; count = 0; arrivals = 0 }

let count t = t.count

let slots t = Array.length t.heads

let arrive t =
  t.arrivals <- t.arrivals + 1;
  t.arrivals

let slot t host local_port remote_port =
  ((((t.hash host * 31) + local_port) * 31) + remote_port)
  land (Array.length t.heads - 1)

let to_list t =
  let rec chain acc (tw : _ tomb) =
    if tw.chain == tw then tw :: acc else chain (tw :: acc) tw.chain
  in
  Array.fold_left
    (fun acc head -> match head with Some tw -> chain acc tw | None -> acc)
    [] t.heads

let rec walk t (tw : _ tomb) host local_port remote_port =
  if
    tw.local_port = local_port
    && tw.remote_port = remote_port
    && t.equal tw.host host
  then Some tw
  else if tw.chain == tw then None
  else walk t tw.chain host local_port remote_port

let find t host local_port remote_port =
  if t.count = 0 then None
  else
    match t.heads.(slot t host local_port remote_port) with
    | None -> None
    | Some head -> walk t head host local_port remote_port

let parked t (tw : _ tomb) =
  match find t tw.host tw.local_port tw.remote_port with
  | Some found -> found == tw
  | None -> false

let push t (tw : _ tomb) =
  let i = slot t tw.host tw.local_port tw.remote_port in
  tw.chain <- (match t.heads.(i) with Some head -> head | None -> tw);
  t.heads.(i) <- Some tw

let add t tw =
  if t.count >= 4 * Array.length t.heads then begin
    let all = to_list t in
    t.heads <- Array.make (max 16 (2 * Array.length t.heads)) None;
    List.iter (push t) all
  end;
  push t tw;
  t.count <- t.count + 1

let remove t (tw : _ tomb) =
  let i = slot t tw.host tw.local_port tw.remote_port in
  let next = if tw.chain == tw then None else Some tw.chain in
  (match t.heads.(i) with
  | Some head when head == tw -> t.heads.(i) <- next
  | Some head ->
    let rec unlink (prev : _ tomb) =
      if prev.chain != tw then unlink prev.chain
      else prev.chain <- Option.value next ~default:prev
    in
    unlink head
  | None -> ());
  tw.chain <- tw;
  t.count <- t.count - 1;
  if t.count = 0 then t.heads <- [||]

(* Under the [max_time_wait] bound the table is one over the bound
   when this runs, so a scan is short. *)
let oldest t =
  match to_list t with
  | [] -> None
  | tw :: rest ->
    let older (o : _ tomb) (tw : _ tomb) =
      if tw.arrival < o.arrival then tw else o
    in
    Some (List.fold_left older tw rest)

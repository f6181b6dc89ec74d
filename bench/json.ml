(* The bench's one JSON emitter: every BENCH_*.json is built as a value
   and printed here, and every string goes through one escaper. The repo
   has no JSON dependency; this covers what the bench writes. *)

type t =
  | Int of int
  | Fixed of int * float  (** a float printed with this many decimals *)
  | Bool of bool
  | Str of string
  | Null
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""
let scalar = function Arr _ | Obj _ -> false | _ -> true

let rec add b ~indent = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Fixed (d, x) -> Buffer.add_string b (Printf.sprintf "%.*f" d x)
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Str s -> Buffer.add_string b (quote s)
  | Null -> Buffer.add_string b "null"
  | Arr items -> members b ~indent '[' ']' (List.map (fun x -> (None, x)) items)
  | Obj fields ->
      members b ~indent '{' '}' (List.map (fun (k, x) -> (Some k, x)) fields)

(* A container of scalars prints on one line; one holding a nested
   container puts each member on its own line. *)
and members b ~indent open_ close items =
  let inline = List.for_all (fun (_, x) -> scalar x) items in
  Buffer.add_char b open_;
  List.iteri
    (fun i (key, x) ->
      if inline then (if i > 0 then Buffer.add_string b ", ")
      else begin
        Buffer.add_string b (if i > 0 then ",\n" else "\n");
        Buffer.add_string b (String.make (indent + 2) ' ')
      end;
      Option.iter (fun k -> Buffer.add_string b (quote k ^ ": ")) key;
      add b ~indent:(indent + 2) x)
    items;
  if not inline then begin
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ')
  end;
  Buffer.add_char b close

let to_string v =
  let b = Buffer.create 4096 in
  add b ~indent:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let write path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

(* object members, for compact literals: [num d] prints [d] decimals *)
let int k n = (k, Int n)
let num d k x = (k, Fixed (d, x))
let str k s = (k, Str s)
let bool k b = (k, Bool b)
let arr k f xs = (k, Arr (List.map f xs))

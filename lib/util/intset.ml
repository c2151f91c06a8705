(* Canonical integer sets as strictly-increasing lists.

   [Stdlib.Set] trees are semantically canonical but not
   representation-canonical: inserting the same elements in different
   orders yields different AVL shapes, so two equal sets can have
   different [Marshal] images.  The CONGEST sanitizer certifies
   order-independence by byte-comparing marshalled node states, which
   requires every state component to have exactly one representation
   per value.  A sorted duplicate-free list is that representation:
   same elements, same bytes, whatever the insertion order. *)

type t = int list

let empty : t = []

let rec add (x : int) t =
  match t with
  | [] -> [ x ]
  | y :: rest ->
      if x < y then x :: t else if x = y then t else y :: add x rest

let of_list xs = List.sort_uniq Int.compare xs

let elements t = t

let cardinal = List.length

let rec mem (x : int) = function [] -> false | y :: rest -> y = x || (y < x && mem x rest)

let remove_min = function [] -> [] | _ :: rest -> rest

let equal a b = List.equal Int.equal a b


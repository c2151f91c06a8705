type t = { words_per_message : int; max_rounds : int; sanitize : bool }

let default = { words_per_message = 4; max_rounds = 2_000_000; sanitize = false }

let with_budget words = { default with words_per_message = words }

let sanitized t = { t with sanitize = true }

let bits_per_word ~n =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  bits 0 (max 1 (n - 1)) + 1

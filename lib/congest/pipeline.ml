let broadcast ~depth ~items = if items = 0 then 0 else depth + items

let upcast ~depth ~items = if items = 0 then 0 else depth + items

let convergecast ~depth ~max_edge_load =
  if max_edge_load = 0 then 0 else depth + max_edge_load

let exchange ~items = items

module coalloc/bench

go 1.22

require coalloc v0.0.0

replace coalloc => ../

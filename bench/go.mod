module frieda/bench

go 1.24

require frieda v0.0.0

replace frieda => ../

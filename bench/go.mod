module ghm/bench

go 1.22

require ghm v0.0.0

replace ghm => ../

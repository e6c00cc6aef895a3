module godcr/bench

go 1.22

require godcr v0.0.0

replace godcr => ../

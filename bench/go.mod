module resilientmix/bench

go 1.22

require resilientmix v0.0.0

replace resilientmix => ../
